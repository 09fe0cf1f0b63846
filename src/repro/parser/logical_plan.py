"""Logical plans: trees of function signatures (paper Section 4, Figure 3).

Each node carries exactly the fields of the paper's JSON layout -- ``name``,
``description``, ``inputs`` (datasource names: base relations, views, or the
outputs of earlier nodes), and ``output`` (the table the function produces) --
plus bookkeeping the optimizer and lineage need (dependency pattern, the
sketch step the node realizes, free-form parameters such as keyword lists or
score weights, and the node's template ``family``).

Whoever creates a node declares its family (the plan writer per purpose, the
fusion rewrite for a fused node); the implementation library, the cost model,
the execution monitor and the sharded merge all read that field and never
re-derive it from the node's name.  The family stays out of the Figure 3
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import PlanError


@dataclass
class LogicalPlanNode:
    """One logical operator: a function signature plus semantic hints."""

    name: str
    description: str
    inputs: List[str] = field(default_factory=list)
    output: str = ""
    dependency_pattern: str = "one_to_one"
    sketch_step: Optional[int] = None
    parameters: Dict[str, Any] = field(default_factory=dict)
    #: The implementation-library template family, e.g. ``"semantic_score"``.
    family: str = ""

    def signature_json(self) -> Dict[str, Any]:
        """The exact JSON layout of the paper's Figure 3."""
        return {
            "name": self.name,
            "description": self.description,
            "inputs": list(self.inputs),
            "output": self.output,
        }

    def describe(self) -> str:
        inputs = ", ".join(self.inputs) or "<none>"
        return f"{self.name}({inputs}) -> {self.output}  [{self.dependency_pattern}]"


@dataclass
class LogicalPlan:
    """An ordered collection of logical-plan nodes.

    Nodes are stored in a valid execution order (each node's inputs are either
    base relations/views or outputs of earlier nodes); :meth:`validate` checks
    that property and :meth:`execution_order` re-derives it topologically.
    """

    nodes: List[LogicalPlanNode] = field(default_factory=list)
    nl_query: str = ""
    sketch_version: int = 1

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def add(self, node: LogicalPlanNode) -> LogicalPlanNode:
        if any(existing.name == node.name for existing in self.nodes):
            raise PlanError(f"duplicate logical plan node name: {node.name!r}")
        self.nodes.append(node)
        return node

    def node(self, name: str) -> LogicalPlanNode:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise PlanError(f"no logical plan node named {name!r}")

    def output_names(self) -> List[str]:
        """The output table names of all nodes."""
        return [node.output for node in self.nodes]

    def producers(self) -> Dict[str, LogicalPlanNode]:
        """output table name -> producing node."""
        return {node.output: node for node in self.nodes}

    def final_output(self) -> str:
        """The output of the last node (the query result table)."""
        if not self.nodes:
            raise PlanError("empty logical plan")
        return self.nodes[-1].output

    def to_json(self, indent: int = 2) -> str:
        """Serialize all signatures in the Figure 3 JSON layout."""
        return json.dumps([node.signature_json() for node in self.nodes], indent=indent)

    def validate(self, available_sources: Iterable[str]) -> List[str]:
        """Check structural validity; returns a list of problems (empty = valid).

        ``available_sources`` are the base relations and views registered in
        the catalog.
        """
        problems: List[str] = []
        known = {name.lower() for name in available_sources}
        for node in self.nodes:
            if not node.output:
                problems.append(f"node {node.name!r} declares no output")
            for source in node.inputs:
                if source.lower() not in known:
                    problems.append(
                        f"node {node.name!r} reads {source!r} which is neither a catalog "
                        f"table nor the output of an earlier node")
            if node.output:
                known.add(node.output.lower())
        outputs = [node.output for node in self.nodes if node.output]
        duplicates = {o for o in outputs if outputs.count(o) > 1}
        if duplicates:
            problems.append(f"multiple nodes produce the same output table(s): {sorted(duplicates)}")
        return problems

    def execution_order(self) -> List[LogicalPlanNode]:
        """Topological order of the nodes by their data dependencies."""
        producers = self.producers()
        ordered: List[LogicalPlanNode] = []
        visiting: set = set()
        done: set = set()

        def visit(node: LogicalPlanNode) -> None:
            if node.name in done:
                return
            if node.name in visiting:
                raise PlanError(f"cycle detected at node {node.name!r}")
            visiting.add(node.name)
            for source in node.inputs:
                producer = producers.get(source)
                if producer is not None and producer is not node:
                    visit(producer)
            visiting.discard(node.name)
            done.add(node.name)
            ordered.append(node)

        for node in self.nodes:
            visit(node)
        return ordered

    def describe(self) -> str:
        """One line per node, in stored order."""
        lines = [f"logical plan for: {self.nl_query} (sketch v{self.sketch_version})"]
        lines.extend("  " + node.describe() for node in self.nodes)
        return "\n".join(lines)
