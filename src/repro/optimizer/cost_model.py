"""The unified cost model over FAO implementations.

The cost of a physical operator is dominated by its model calls, so the model
estimates *tokens* (per-row template priors refined by measured profiler
tokens) and converts them to a synthetic latency; relational work contributes
a small per-row constant.  Cardinalities are propagated through the plan with
simple selectivity heuristics -- enough to make predicate pushdown and cheap
variants visibly cheaper, which is all the ablation benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.fao.function import GeneratedFunction
from repro.fao.profiler import ProfileResult
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.relational.catalog import Catalog

# Selectivity priors by node family keyword.
_FILTER_SELECTIVITY = 0.5
_FLAG_FILTER_SELECTIVITY = 0.5
_RELATIONAL_FILTER_SELECTIVITY = 0.4
# Synthetic latency per 1000 tokens (seconds); matches the CostMeter scale.
_SECONDS_PER_1K_TOKENS = 0.02
# Relational per-row processing cost (seconds).  Halved when the relational
# core went columnar: pure operators now run over shared column vectors
# instead of materializing a dict per row (benchmarks/e2e reports the
# measured time as relational.operator_ms).
_SECONDS_PER_ROW = 1e-6


@dataclass
class CostEstimate:
    """Estimated cost of running one implementation at one plan position."""

    tokens: float
    runtime_s: float
    output_cardinality: int

    def total_cost(self, token_weight: float = 1.0, runtime_weight: float = 0.0) -> float:
        """A single scalar for comparisons (token-dominated by default)."""
        return token_weight * self.tokens + runtime_weight * self.runtime_s


class CostModel:
    """Estimates cardinalities and per-operator costs."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._cardinalities: Dict[str, int] = {}

    # -- cardinality propagation ----------------------------------------------------
    def input_cardinality(self, node: LogicalPlanNode) -> int:
        """Estimated rows of the node's primary input."""
        if not node.inputs:
            return 0
        return self.table_cardinality(node.inputs[0])

    def table_cardinality(self, table_name: str) -> int:
        """Estimated rows of a table (catalog stats or propagated estimate)."""
        if table_name in self._cardinalities:
            return self._cardinalities[table_name]
        if self.catalog.has_table(table_name):
            entry = self.catalog.entry(table_name)
            return entry.stats.row_count if entry.stats else len(entry.table)
        return 0

    def record_output_cardinality(self, table_name: str, rows: int) -> None:
        """Remember an (estimated or observed) cardinality for a derived table."""
        self._cardinalities[table_name] = rows

    def estimate_output_cardinality(self, node: LogicalPlanNode, input_rows: int) -> int:
        """Propagate cardinality through one node."""
        name = node.name.lower()
        if name.startswith("filter_"):
            if "flag_column" in node.parameters:
                selectivity = _FLAG_FILTER_SELECTIVITY
            elif "op" in node.parameters:
                selectivity = _RELATIONAL_FILTER_SELECTIVITY
            else:
                selectivity = _FILTER_SELECTIVITY
            return max(1, int(round(input_rows * selectivity)))
        if name.startswith("join_results"):
            other = self.table_cardinality(node.inputs[1]) if len(node.inputs) > 1 else input_rows
            return max(1, min(input_rows, other))
        # Scores, classification, ranking, projection: one output row per input row.
        return input_rows

    # -- cost estimation ---------------------------------------------------------------
    @staticmethod
    def batched_tokens(tokens_per_row: float, setup_tokens: float,
                       rows: int, batch_size: int) -> float:
        """The PR-3 sub-linear batch price at estimation time.

        A serial run pays ``tokens_per_row × rows``; a batched run pays the
        per-call setup once per chunk plus every row's marginal content:
        ``ceil(rows / batch_size) × setup + rows × (tokens_per_row − setup)``
        — the planning-time analogue of ``max(setup) + sum(marginal)``.
        Setup never swallows a row's whole price (at least one token stays
        marginal), mirroring the execution-time cap in
        :func:`repro.models.batching.plan_batch`.
        """
        if rows <= 0:
            return 0.0
        setup = min(max(0.0, setup_tokens), max(0.0, tokens_per_row - 1.0))
        chunks = -(-rows // max(1, batch_size))  # ceil division
        return chunks * setup + rows * (tokens_per_row - setup)

    def estimate(self, node: LogicalPlanNode, function: GeneratedFunction,
                 profile: Optional[ProfileResult] = None,
                 batch_size: int = 0) -> CostEstimate:
        """Estimate the cost of running ``function`` for ``node`` at full scale.

        ``batch_size`` > 1 prices batchable implementations with the
        sub-linear batch formula instead of ``cost_per_row_tokens × rows``,
        so physical choice sees vectorized variants at the bill they will
        actually pay.
        """
        input_rows = self.input_cardinality(node)
        tokens_per_row = function.cost_per_row_tokens
        if profile is not None and profile.success and profile.rows_in > 0:
            tokens_per_row = profile.tokens_per_row
        if function.batchable and batch_size > 1:
            tokens = self.batched_tokens(tokens_per_row,
                                         function.batch_setup_tokens,
                                         input_rows, batch_size)
        else:
            tokens = tokens_per_row * input_rows
        runtime = tokens / 1000.0 * _SECONDS_PER_1K_TOKENS + input_rows * _SECONDS_PER_ROW
        if profile is not None and profile.success and profile.rows_in > 0:
            runtime += (profile.runtime_s / profile.rows_in) * input_rows
        output_rows = self.estimate_output_cardinality(node, input_rows)
        self.record_output_cardinality(node.output, output_rows)
        return CostEstimate(tokens=tokens, runtime_s=runtime, output_cardinality=output_rows)

    def estimate_plan_tokens(self, plan: LogicalPlan,
                             tokens_per_row_by_node: Optional[Dict[str, float]] = None) -> float:
        """Rough token estimate for a whole logical plan (used by rewrites)."""
        total = 0.0
        defaults = tokens_per_row_by_node or {}
        self._cardinalities = {}
        for node in plan.execution_order():
            input_rows = self.input_cardinality(node)
            per_row = defaults.get(node.name, 1.0)
            total += per_row * input_rows
            self.record_output_cardinality(node.output,
                                           self.estimate_output_cardinality(node, input_rows))
        return total
