"""The execution engine: runs physical plans with lineage, repair, and monitoring."""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.datamodel.lineage import LineageStore
from repro.errors import FunctionExecutionError, RepairFailedError
from repro.executor.context import ExecutionContext
from repro.executor.monitor import ANOMALY_OPTIONS, ExecutionMonitor
from repro.executor.result import ExecutionRecord, QueryResult
from repro.fao.codegen import Coder
from repro.fao.function import FunctionContext, GeneratedFunction
from repro.fao.registry import FunctionRegistry
from repro.interaction.channel import InteractionChannel
from repro.models.base import ModelSuite
from repro.obs.trace import span as obs_span
from repro.optimizer.physical_plan import PhysicalOperator, PhysicalPlan
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.skills.store import SkillStore

#: Hidden per-row lineage column name.
LID_COLUMN = "lid"


class ExecutionEngine:
    """Executes physical plans operator by operator."""

    def __init__(self, models: ModelSuite, catalog: Catalog, lineage: LineageStore,
                 registry: FunctionRegistry, coder: Optional[Coder] = None,
                 monitor: Optional[ExecutionMonitor] = None,
                 max_repair_rounds: int = 3,
                 skill_store: Optional["SkillStore"] = None):
        self.models = models
        self.catalog = catalog
        self.lineage = lineage
        self.registry = registry
        self.coder = coder or Coder(models)
        self.monitor = monitor or ExecutionMonitor(models)
        self.max_repair_rounds = max_repair_rounds
        # Production failures demote the stored skill behind a function so
        # the next prepare regenerates through the critic instead of reusing
        # an implementation that just failed on real data.
        self.skill_store = skill_store

    # -- public API -----------------------------------------------------------------
    def execute(self, plan: PhysicalPlan, channel: InteractionChannel,
                nl_query: str = "",
                context: Optional[ExecutionContext] = None) -> QueryResult:
        """Execute one physical plan and return the full query result.

        ``context`` carries the intermediates namespace, the table-lid map,
        and the lineage scope.  When omitted (the legacy single-user path) an
        ephemeral context over the engine's own lineage store is used.  The
        catalog is never written to during execution.
        """
        if context is None:
            context = ExecutionContext.for_catalog(self.catalog, lineage=self.lineage)
        if context.lineage is None:
            context.lineage = self.lineage
        result = QueryResult(nl_query=nl_query, final_table=Table("empty", Schema([])),
                             physical_plan=plan, logical_plan=plan.logical_plan,
                             lineage=context.lineage, transcript=channel.transcript)

        total_timer = Timer()
        marker = self.models.cost_meter.snapshot()
        produced: List[str] = []
        with total_timer:
            for operator in plan.operators:
                # Operator boundaries are the engine's cancellation points:
                # a scheduled request whose deadline lapsed mid-execution
                # stops here instead of paying for the next operator.
                if context.cancel is not None:
                    context.cancel.check()
                record = self._execute_operator(operator, context, channel, result)
                result.records.append(record)
                produced.append(operator.node.output)

        # The result carries exactly this execution's outputs; the context may
        # hold more (a session's namespace accumulates across queries).
        result.intermediates = {name: context.intermediates[name] for name in produced
                                if name in context.intermediates}
        result.table_lids = dict(context.table_lids)
        final_name = plan.final_output()
        result.final_table = context.intermediates.get(final_name,
                                                       Table(final_name, Schema([])))
        result.total_tokens = self.models.cost_meter.tokens_since(marker)
        result.total_runtime_s = total_timer.elapsed
        return result

    # -- per-operator execution ---------------------------------------------------------
    def _resolve_inputs(self, operator: PhysicalOperator,
                        intermediates: Dict[str, Table]) -> Dict[str, Table]:
        inputs: Dict[str, Table] = {}
        for name in operator.node.inputs:
            if name in intermediates:
                inputs[name] = intermediates[name]
            elif self.catalog.has_table(name):
                # Hand function bodies a copy-on-write fork, not the live
                # catalog table: the fork is O(columns), and any stray write
                # a generated body makes copies only the touched column
                # instead of corrupting shared catalog state.
                inputs[name] = self.catalog.table(name).fork()
            else:
                inputs[name] = Table(name, Schema([]))
        return inputs

    def _execute_operator(self, operator: PhysicalOperator, context: ExecutionContext,
                          channel: InteractionChannel,
                          result: QueryResult) -> ExecutionRecord:
        node = operator.node
        function = operator.function
        inputs = self._resolve_inputs(operator, context.intermediates)
        # The optimizer's vectorization hint rides on the operator; batchable
        # bodies chunk their per-row model inputs accordingly (bit-identical
        # rows, sub-linear token cost).
        fn_context = FunctionContext(
            models=self.models, catalog=self.catalog,
            batch_size=operator.batch_size if operator.batchable else 0)
        primary = inputs.get(node.inputs[0]) if node.inputs else None
        rows_in = len(primary) if primary is not None else 0

        record = ExecutionRecord(
            operator_name=node.name, function_variant=function.variant,
            function_version=function.version, rows_in=rows_in, rows_out=0,
            runtime_s=0.0, tokens=0, lineage_data_type="off", output_table=node.output)

        # Per-operator gateway delta: the suite's client counters are
        # session-private, and a session executes one operator at a time.
        gateway_counters = self.models.gateway_client.counters
        gateway_marker = gateway_counters.snapshot()

        # One ``operator`` span per physical operator; model-call spans the
        # gateway records during the body nest under it.
        with obs_span(node.name, kind="operator", output=node.output,
                      rows_in=rows_in) as op_sp:
            marker = self.models.cost_meter.snapshot()
            timer = Timer()
            with timer:
                output, function = self._run_with_repair(node, function, inputs, fn_context,
                                                         channel, record)
                operator.function = function

                # Semantic monitoring: escalate anomalies to the user and, when asked,
                # adjust the implementation and reprocess the operator.
                anomalies = self.monitor.inspect(node, function, inputs, output)
                for anomaly in anomalies:
                    decision = channel.escalate_anomaly(
                        anomaly.describe() + " How should KathDB proceed?", ANOMALY_OPTIONS)
                    anomaly.decision = decision
                    record.anomalies.append(anomaly.describe())
                    if decision in ("adjust", "rewrite"):
                        hint = anomaly.likely_cause or anomaly.message
                        if self.skill_store is not None:
                            self.skill_store.record_production_failure(function, hint)
                        with obs_span("repair", kind="stage", operator=node.name,
                                      reason="anomaly"):
                            function = self.coder.repair(node, function, hint)
                        self.registry.register(function)
                        operator.function = function
                        record.repairs.append(f"adjusted after anomaly: {hint}")
                        output, function = self._run_with_repair(node, function, inputs,
                                                                 fn_context, channel, record)
                        operator.function = function

            record.runtime_s = timer.elapsed
            record.tokens = self.models.cost_meter.tokens_since(marker)
            record.function_version = function.version
            record.function_variant = function.variant
            delta = gateway_counters.delta(gateway_marker)
            record.gateway_hits = (delta["hits"] + delta["coalesced"]
                                   + delta["semantic_hits"])
            record.gateway_tokens_saved = delta["tokens_saved"]
            record.gateway_batch_tokens_saved = delta["batch_tokens_saved"]
            record.batch_calls = delta["batch_calls"]
            # The audit list is bounded (old entries are trimmed), so read
            # this operator's batches as a count-sized suffix, not by index.
            record.batch_sizes = (
                list(gateway_counters.batch_sizes[-record.batch_calls:])
                if record.batch_calls else [])

            # Lineage recording.
            record.lineage_data_type = self._record_lineage(node, function, inputs, output,
                                                            context, record)
            record.rows_out = len(output)
            record.span_id = op_sp.span_id or None
            op_sp.tag(rows_out=record.rows_out, tokens=record.tokens,
                      variant=record.function_variant,
                      repairs=len(record.repairs),
                      anomalies=len(record.anomalies))

        # Intermediates live in the execution context (session namespace); the
        # shared catalog is never mutated during execution.
        context.intermediates[node.output] = output
        return record

    def _run_with_repair(self, node, function: GeneratedFunction, inputs, context,
                         channel: InteractionChannel, record: ExecutionRecord):
        """Run a function, self-repairing syntactic faults (reviewer/rewriter loop)."""
        attempts = 0
        current = function
        while True:
            try:
                return current.execute(inputs, context), current
            except FunctionExecutionError as error:
                attempts += 1
                if attempts > self.max_repair_rounds:
                    raise RepairFailedError(
                        f"operator {node.name!r} still fails after "
                        f"{self.max_repair_rounds} repair attempts: {error}") from error
                hint = str(error)
                if self.skill_store is not None:
                    self.skill_store.record_production_failure(current, hint)
                channel.notify(
                    f"runtime error in {node.name!r} (v{current.version}): {hint}; "
                    f"KathDB is generating a patched implementation and resuming.")
                try:
                    with obs_span("repair", kind="stage", operator=node.name,
                                  attempt=attempts, reason="runtime-error"):
                        current = self.coder.repair(node, current, hint)
                except Exception as generation_error:  # noqa: BLE001 - surface as repair failure
                    raise RepairFailedError(
                        f"operator {node.name!r} could not be regenerated after a runtime "
                        f"error: {generation_error}") from generation_error
                self.registry.register(current)
                record.repairs.append(f"syntactic repair v{current.version}: {hint}")

    # -- lineage ------------------------------------------------------------------------
    def _record_lineage(self, node, function: GeneratedFunction, inputs, output: Table,
                        context: ExecutionContext, record: ExecutionRecord) -> str:
        """Record lineage for one operator; returns the data_type recorded."""
        lineage = context.lineage
        table_lids = context.table_lids
        if not lineage.enabled:
            return "off"
        input_lids = [table_lids.get(name.lower()) for name in node.inputs]
        narrow = function.dependency_pattern.is_narrow and lineage.row_tracking_enabled

        if narrow:
            primary_name = node.inputs[0] if node.inputs else None
            primary_lid = table_lids.get(primary_name.lower()) if primary_name else None
            if not output.schema.has_column(LID_COLUMN):
                # The schema setter materializes the new column as NULLs.
                output.schema = output.schema.add(Column(LID_COLUMN, DataType.INTEGER))
            # Whole-column lid stamping: read the inherited vector once,
            # mint new lids, and write the column back in one shot.
            inherited_lids = output.column_values(LID_COLUMN)
            new_lids = []
            for inherited in inherited_lids:
                parent = inherited if inherited is not None else primary_lid
                new_lids.append(lineage.record_row(function.func_id, function.version,
                                                   parent))
            output.set_column(LID_COLUMN, new_lids)
            # The output table itself also gets a table-level handle so later
            # wide operators can reference it as a parent.
            table_lid = lineage.record_table(function.func_id, function.version,
                                             input_lids)
            table_lids[node.output.lower()] = table_lid
            return "row"

        table_lid = lineage.record_table(function.func_id, function.version, input_lids)
        table_lids[node.output.lower()] = table_lid
        return "table"
