"""Logical-plan rewrites (paper Section 4, "Cost optimization").

Two rewrites are implemented:

* **predicate pushdown** -- relational filters drafted near the end of the plan
  are moved next to the base-table selection, so semantic scoring and
  classification (the expensive, model-backed operators) run on fewer rows;
* **operator fusion** -- a chain of one-to-one scoring nodes (semantic scores,
  recency, combination) is merged into one larger function.  Fewer functions
  mean fewer intermediate materializations but, as the paper discusses, larger
  functions are harder to generate correctly and explain -- the fused variant
  carries a lower accuracy prior, which is the trade-off the granularity
  ablation (A2) measures.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.relational.catalog import Catalog


# One-to-one scoring families that operator fusion chains together.
_FUSABLE_FAMILIES = ("semantic_score", "recency_score", "combine_scores")


def applied_rewrites(enable_pushdown: bool, enable_fusion: bool) -> List[str]:
    """Names of the rewrites that a configuration enables (for reporting)."""
    names = []
    if enable_pushdown:
        names.append("predicate_pushdown")
    if enable_fusion:
        names.append("operator_fusion")
    return names


def _clone(plan: LogicalPlan) -> LogicalPlan:
    return copy.deepcopy(plan)


def _consumers_of(plan: LogicalPlan, table_name: str) -> List[LogicalPlanNode]:
    return [node for node in plan.nodes if table_name in node.inputs]


def predicate_pushdown(plan: LogicalPlan, catalog: Catalog) -> Tuple[LogicalPlan, bool]:
    """Push relational filters down to the base-table selection.

    A filter is pushed when its column is provided by the base relation the
    plan's selection node reads (checked against the catalog schema), so the
    rewrite is safe with respect to column availability.  Returns the (possibly
    new) plan and whether anything changed.
    """
    new_plan = _clone(plan)
    select_nodes = [node for node in new_plan.nodes if node.family == "select_columns"]
    if not select_nodes:
        return new_plan, False
    select_node = select_nodes[0]
    base_table = select_node.inputs[0] if select_node.inputs else None
    if base_table is None or not catalog.has_table(base_table):
        return new_plan, False
    base_columns = {c.lower() for c in catalog.schema(base_table).column_names()}

    changed = False
    for filter_node in list(new_plan.nodes):
        if filter_node.family != "relational_filter":
            continue
        column = str(filter_node.parameters["column"]).lower()
        if column not in base_columns:
            continue
        if filter_node.inputs == [select_node.output]:
            continue  # already at the source
        old_input = filter_node.inputs[0]
        old_output = filter_node.output

        # Splice the filter out of its current position.
        for consumer in _consumers_of(new_plan, old_output):
            consumer.inputs = [old_input if name == old_output else name
                               for name in consumer.inputs]

        # Re-insert it directly after the selection node.
        pushed_output = f"{select_node.output}_pushed_{filter_node.name}"
        for consumer in _consumers_of(new_plan, select_node.output):
            if consumer is filter_node:
                continue
            consumer.inputs = [pushed_output if name == select_node.output else name
                               for name in consumer.inputs]
        filter_node.inputs = [select_node.output]
        filter_node.output = pushed_output

        # Keep the stored node order roughly topological for readability.
        new_plan.nodes.remove(filter_node)
        insert_at = new_plan.nodes.index(select_node) + 1
        new_plan.nodes.insert(insert_at, filter_node)
        changed = True

    return new_plan, changed


def fuse_score_chain(plan: LogicalPlan) -> Tuple[LogicalPlan, bool]:
    """Fuse chains of one-to-one scoring nodes into a single function.

    The fused node (family ``fused_scores``) carries the sub-steps in
    ``sub_specs``, each with its own family, so the implementation library
    can run each step's own template in one composite body.  Only maximal
    chains of at least two nodes are fused.
    """
    new_plan = _clone(plan)

    def is_fusable(node: LogicalPlanNode) -> bool:
        return (node.family in _FUSABLE_FAMILIES
                and node.dependency_pattern in ("one_to_one", "one_to_many")
                and len(node.inputs) == 1)

    # Find a maximal chain: consecutive fusable nodes where each consumes the
    # previous node's output and that output has no other consumer.
    chain: List[LogicalPlanNode] = []
    for node in new_plan.execution_order():
        if not is_fusable(node):
            continue
        if not chain:
            chain = [node]
            continue
        previous = chain[-1]
        only_consumer = _consumers_of(new_plan, previous.output) == [node]
        if node.inputs == [previous.output] and only_consumer:
            chain.append(node)
        elif len(chain) >= 2:
            break
        else:
            chain = [node]

    if len(chain) < 2:
        return new_plan, False

    sub_specs = []
    for node in chain:
        spec = {"name": node.name, "description": node.description,
                "family": node.family, "parameters": dict(node.parameters)}
        sub_specs.append(spec)

    fused = LogicalPlanNode(
        name="fused_" + "_".join(n.name for n in chain)[:60],
        description=("Fused scoring function combining: "
                     + "; ".join(n.description for n in chain)),
        inputs=list(chain[0].inputs),
        output=chain[-1].output,
        dependency_pattern="one_to_one",
        sketch_step=chain[0].sketch_step,
        parameters={"sub_specs": sub_specs},
        family="fused_scores",
    )

    # Replace the chain with the fused node at the first chain position.
    first_index = new_plan.nodes.index(chain[0])
    for node in chain:
        new_plan.nodes.remove(node)
    new_plan.nodes.insert(first_index, fused)
    return new_plan, True
