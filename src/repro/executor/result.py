"""Execution records and query results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.datamodel.lineage import LineageStore
from repro.interaction.channel import Transcript
from repro.models.llm import QueryIntent
from repro.optimizer.physical_plan import PhysicalPlan
from repro.parser.logical_plan import LogicalPlan
from repro.parser.sketch import QuerySketch
from repro.relational.table import Table


@dataclass
class ExecutionRecord:
    """What happened while executing one physical operator."""

    operator_name: str
    function_variant: str
    function_version: int
    rows_in: int
    rows_out: int
    runtime_s: float
    tokens: int
    lineage_data_type: str            # "row", "table", or "off"
    output_table: str
    table_lid: Optional[int] = None
    repairs: List[str] = field(default_factory=list)
    anomalies: List[str] = field(default_factory=list)
    # Model-gateway activity while this operator ran: calls answered
    # without executing a model, the tokens those answers would have cost,
    # and the discount batched misses received off their serial price.
    gateway_hits: int = 0
    gateway_tokens_saved: int = 0
    gateway_batch_tokens_saved: int = 0
    # Vectorized execution: batched invocations this operator issued itself
    # (through the gateway batch client) and their sizes, in issue order.
    batch_calls: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    # The operator's trace span (repro.obs), linking this record to the
    # query's trace tree; None when tracing is off.
    span_id: Optional[str] = None

    def describe(self) -> str:
        extras = []
        if self.repairs:
            extras.append(f"repairs={len(self.repairs)}")
        if self.anomalies:
            extras.append(f"anomalies={len(self.anomalies)}")
        if self.gateway_hits:
            extras.append(f"gateway_hits={self.gateway_hits}")
        if self.batch_calls:
            extras.append(f"batched={self.batch_calls}x"
                          f"{max(self.batch_sizes, default=0)}")
        if self.gateway_batch_tokens_saved:
            extras.append(f"batch_saved={self.gateway_batch_tokens_saved}")
        suffix = (" [" + ", ".join(extras) + "]") if extras else ""
        return (f"{self.operator_name} v{self.function_version} ({self.function_variant}): "
                f"{self.rows_in}->{self.rows_out} rows, {self.runtime_s * 1000:.1f} ms, "
                f"{self.tokens} tokens, lineage={self.lineage_data_type}{suffix}")


@dataclass
class QueryResult:
    """Everything produced by one KathDB query."""

    nl_query: str
    final_table: Table
    intermediates: Dict[str, Table] = field(default_factory=dict)
    records: List[ExecutionRecord] = field(default_factory=list)
    sketch: Optional[QuerySketch] = None
    intent: Optional[QueryIntent] = None
    logical_plan: Optional[LogicalPlan] = None
    physical_plan: Optional[PhysicalPlan] = None
    transcript: Optional[Transcript] = None
    lineage: Optional[LineageStore] = None
    table_lids: Dict[str, int] = field(default_factory=dict)
    total_tokens: int = 0
    total_runtime_s: float = 0.0

    # -- conveniences ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.final_table)

    def rows(self) -> List[Dict[str, Any]]:
        """Rows of the final result table."""
        return [dict(row) for row in self.final_table]

    def titles(self) -> List[str]:
        """Title column of the result, in result order (empty if absent)."""
        if not self.final_table.schema.has_column("title"):
            return []
        return [row.get("title") for row in self.final_table]

    def top(self, n: int = 5) -> List[Dict[str, Any]]:
        """The first ``n`` result rows."""
        return self.final_table.head(n)

    def record_for(self, operator_name: str) -> Optional[ExecutionRecord]:
        """The execution record of one operator, if it ran."""
        for record in self.records:
            if record.operator_name == operator_name:
                return record
        return None

    def repairs_performed(self) -> int:
        """Total on-the-fly repairs across all operators."""
        return sum(len(record.repairs) for record in self.records)

    def anomalies_raised(self) -> int:
        """Total semantic anomalies escalated across all operators."""
        return sum(len(record.anomalies) for record in self.records)

    def describe(self, limit: int = 10) -> str:
        """A human-readable summary: result head plus per-operator records."""
        lines = [f"query: {self.nl_query}",
                 f"result rows: {len(self.final_table)} "
                 f"(tokens={self.total_tokens}, runtime={self.total_runtime_s * 1000:.1f} ms)",
                 self.final_table.pretty(limit=limit), "", "execution records:"]
        lines.extend("  " + record.describe() for record in self.records)
        return "\n".join(lines)
