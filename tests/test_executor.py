"""Unit and integration tests for the execution engine, monitor, and repair loops."""

import pytest

from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY
from repro.datamodel.lineage import LINEAGE_LEVEL_OFF, LINEAGE_LEVEL_TABLE, LineageStore
from repro.datamodel.views import ViewPopulator
from repro.errors import RepairFailedError
from repro.executor.engine import ExecutionEngine
from repro.executor.monitor import ANOMALY_OPTIONS, ExecutionMonitor
from repro.fao.codegen import Coder, FAULT_SEMANTIC_REVERSED, FAULT_SYNTACTIC_FRAGILE
from repro.fao.registry import FunctionRegistry
from repro.interaction.channel import InteractionChannel, InteractionKind
from repro.interaction.user import ScriptedUser, SilentUser
from repro.models.base import ModelSuite
from repro.optimizer.optimizer import QueryOptimizer
from repro.parser.logical_plan import LogicalPlanNode
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.relational.catalog import Catalog
from repro.relational.table import Table


def build_environment(corpus, fault_injection=None, lineage_level="row", monitor_enabled=True):
    """A fresh, fully wired execution environment for one test."""
    models = ModelSuite.create(seed=13)
    catalog = Catalog()
    lineage = LineageStore(level=lineage_level)
    ViewPopulator(models, catalog, lineage).load_corpus(corpus)
    registry = FunctionRegistry()
    coder = Coder(models, fault_injection=fault_injection or {})
    optimizer = QueryOptimizer(models, catalog, registry, coder=coder, explore_variants=False)
    engine = ExecutionEngine(models, catalog, lineage, registry, coder=coder,
                             monitor=ExecutionMonitor(models, enabled=monitor_enabled))
    return models, catalog, lineage, registry, optimizer, engine


def flagship_plan(models, catalog, channel):
    outcome = NLParser(models).parse(FLAGSHIP_QUERY, channel)
    return LogicalPlanGenerator(models, catalog).generate(outcome.sketch, outcome.intent)


def flagship_channel():
    return InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                           [FLAGSHIP_CORRECTION]))


class TestBasicExecution:
    def test_flagship_execution_produces_figure6_ordering(self, corpus):
        models, catalog, lineage, registry, optimizer, engine = build_environment(corpus)
        channel = flagship_channel()
        plan = flagship_plan(models, catalog, channel)
        physical, _ = optimizer.optimize(plan)
        result = engine.execute(physical, channel, nl_query=FLAGSHIP_QUERY)
        assert result.titles()[:2] == ["Guilty by Suspicion", "Clean and Sober"]
        assert all(row["boring_poster"] for row in result.final_table)
        assert result.total_tokens > 0
        assert len(result.records) == len(physical)
        assert result.record_for("rank_films").rows_out == len(result.final_table)
        assert "execution records" in result.describe()

    def test_intermediates_stay_out_of_the_catalog(self, corpus):
        # Intermediates live in the execution context / result, never in the
        # shared catalog: concurrent queries must not see each other's state.
        models, catalog, lineage, registry, optimizer, engine = build_environment(corpus)
        channel = flagship_channel()
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        tables_before = set(catalog.table_names())
        result = engine.execute(physical, channel)
        assert "films_with_final_score" in result.intermediates
        assert not catalog.has_table("films_with_final_score")
        assert set(catalog.table_names()) == tables_before

    def test_execution_context_namespace_persists(self, corpus):
        # A caller-supplied context accumulates intermediates across runs,
        # giving sessions a private namespace later queries can reference.
        from repro.executor.context import ExecutionContext
        models, catalog, lineage, registry, optimizer, engine = build_environment(corpus)
        channel = flagship_channel()
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        context = ExecutionContext.for_catalog(catalog, lineage=lineage)
        engine.execute(physical, channel, context=context)
        assert "films_with_final_score" in context.intermediates
        assert context.table_lids["films_with_final_score"] > 0

    def test_row_lineage_for_narrow_and_table_for_wide(self, corpus):
        models, catalog, lineage, registry, optimizer, engine = build_environment(corpus)
        channel = flagship_channel()
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        result = engine.execute(physical, channel)
        assert result.record_for("gen_excitement_score").lineage_data_type == "row"
        assert result.record_for("join_text_entities").lineage_data_type == "table"
        assert result.record_for("rank_films").lineage_data_type == "table"
        # Every final row carries the lid assigned by combine_scores and the
        # lineage store can trace it back to the raw sources (Figure 2).
        lid = result.rows()[0]["lid"]
        assert lineage.producing_function(lid)[0] == "combine_scores"
        ancestors = lineage.ancestors_of(lid)
        source_uris = [lineage.entries_for(a)[0].src_uri for a in ancestors]
        assert any(uri and "movie_table" in uri for uri in source_uris)

    def test_lineage_off_mode(self, corpus):
        models, catalog, lineage, registry, optimizer, engine = build_environment(
            corpus, lineage_level=LINEAGE_LEVEL_OFF)
        channel = flagship_channel()
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        before = len(lineage)
        result = engine.execute(physical, channel)
        assert len(lineage) == before
        assert all(record.lineage_data_type == "off" for record in result.records)
        assert result.titles()[:2] == ["Guilty by Suspicion", "Clean and Sober"]

    def test_lineage_table_mode_records_fewer_entries(self, corpus):
        models_r, catalog_r, lineage_row, *_rest = build_environment(corpus)
        _, _, lineage_tbl, _, optimizer_t, engine_t = build_environment(
            corpus, lineage_level=LINEAGE_LEVEL_TABLE)
        channel = flagship_channel()
        physical, _ = optimizer_t.optimize(flagship_plan(engine_t.models, engine_t.catalog,
                                                         channel))
        engine_t.execute(physical, channel)
        assert lineage_tbl.summary()["row"] == 0
        assert lineage_tbl.summary()["table"] > 0


class TestSyntacticRepair:
    def test_heic_fault_is_repaired_on_the_fly(self, corpus):
        fault = {"classify_boring": FAULT_SYNTACTIC_FRAGILE}
        models, catalog, lineage, registry, optimizer, engine = build_environment(
            corpus, fault_injection=fault)
        # Make one poster an unsupported format (the paper's example).
        posters = catalog.table("poster_images")
        posters.rows[0]["image_uri"] = "file://posters/guilty_by_suspicion.heic"
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
        channel = InteractionChannel(user)
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        # Re-arm the fault for execution (the optimizer's critic repaired its copy).
        engine.coder.fault_injection["classify_boring"] = FAULT_SYNTACTIC_FRAGILE
        physical.operator("classify_boring").function = engine.coder.generate(
            physical.operator("classify_boring").node, variant="scene_statistics")
        registry.register(physical.operator("classify_boring").function)

        result = engine.execute(physical, channel, nl_query=FLAGSHIP_QUERY)
        record = result.record_for("classify_boring")
        assert record.repairs, "expected an on-the-fly syntactic repair"
        assert record.function_version > 1
        assert user.notices, "the user should be notified about the runtime repair"
        assert result.titles()[:2] == ["Guilty by Suspicion", "Clean and Sober"]

    def test_repair_budget_exhaustion_raises(self, corpus):
        models, catalog, lineage, registry, optimizer, engine = build_environment(corpus)
        node = LogicalPlanNode(name="rank_films", description="always fails",
                               inputs=["movie_table"], output="out", family="rank",
                               dependency_pattern="many_to_one",
                               parameters={"sort_column": "x"})

        def always_fails(inputs, context):
            raise ValueError("irreparable")

        from repro.fao.function import GeneratedFunction
        from repro.fao.signature import FunctionSignature
        from repro.optimizer.physical_plan import PhysicalOperator, PhysicalPlan

        broken = GeneratedFunction(signature=FunctionSignature.from_node(node),
                                   body=always_fails, source_text="def rank_films(): raise")
        # Repairs regenerate from the library; force the library path to keep
        # failing by pointing the node at a missing input table.
        node.inputs = ["missing_table"]
        plan = PhysicalPlan(operators=[PhysicalOperator(node=node, function=broken)])
        with pytest.raises(RepairFailedError):
            engine.execute(plan, InteractionChannel(SilentUser()))


class TestSemanticMonitoring:
    def test_monitor_escalates_reversed_recency_and_user_adjusts(self, corpus):
        fault = {"gen_recency_score": FAULT_SEMANTIC_REVERSED}
        models, catalog, lineage, registry, optimizer, engine = build_environment(
            corpus, fault_injection=fault)
        # Skip the optimizer's critic (it would fix the bug before execution) by
        # disabling repair rounds there, so the monitor sees the buggy version.
        optimizer.max_repair_rounds = 0
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION],
                            anomaly_choice="adjust")
        channel = InteractionChannel(user)
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        engine.coder.fault_injection["gen_recency_score"] = FAULT_SEMANTIC_REVERSED
        physical.operator("gen_recency_score").function = engine.coder.generate(
            physical.operator("gen_recency_score").node)
        registry.register(physical.operator("gen_recency_score").function)

        result = engine.execute(physical, channel, nl_query=FLAGSHIP_QUERY)
        record = result.record_for("gen_recency_score")
        assert record.anomalies, "the monitor should have flagged the reversed recency"
        assert record.repairs, "the user chose 'adjust', so the function must be regenerated"
        anomaly_turns = channel.transcript.of_kind(InteractionKind.SEMANTIC_ANOMALY)
        assert anomaly_turns and anomaly_turns[0].user_reply == "adjust"
        # After adjustment the recency direction is correct again.
        recency = {row["title"]: row["recency_score"]
                   for row in result.intermediates["films_with_recency"]}
        assert recency["Redline Protocol"] == max(recency.values())

    def test_monitor_accept_keeps_buggy_output(self, corpus):
        fault = {"gen_recency_score": FAULT_SEMANTIC_REVERSED}
        models, catalog, lineage, registry, optimizer, engine = build_environment(
            corpus, fault_injection=fault)
        optimizer.max_repair_rounds = 0
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION],
                            anomaly_choice="accept")
        channel = InteractionChannel(user)
        physical, _ = optimizer.optimize(flagship_plan(models, catalog, channel))
        engine.coder.fault_injection["gen_recency_score"] = FAULT_SEMANTIC_REVERSED
        physical.operator("gen_recency_score").function = engine.coder.generate(
            physical.operator("gen_recency_score").node)
        result = engine.execute(physical, channel)
        record = result.record_for("gen_recency_score")
        assert record.anomalies and not record.repairs

    def test_monitor_flags_duplicate_poster_join(self, corpus):
        models = ModelSuite.create(seed=1)
        monitor = ExecutionMonitor(models)
        node = LogicalPlanNode(name="join_posters", description="join posters to movies",
                               inputs=["left"], output="joined", family="join_images")
        inputs = {"left": Table.from_rows("left", [{"movie_id": 1}, {"movie_id": 2}])}
        output = Table.from_rows("joined", [
            {"movie_id": 1, "image_uri": "poster_a.png"},
            {"movie_id": 2, "image_uri": "poster_a.png"},
        ])
        from repro.fao.function import GeneratedFunction
        from repro.fao.signature import FunctionSignature
        function = GeneratedFunction(signature=FunctionSignature.from_node(node),
                                     body=lambda i, c: output, source_text="")
        anomalies = monitor.inspect(node, function, inputs, output)
        assert any("linked to multiple" in a.message for a in anomalies)
        assert ANOMALY_OPTIONS == ["accept", "adjust", "rewrite"]

    def test_monitor_disabled_reports_nothing(self, corpus):
        models = ModelSuite.create(seed=1)
        monitor = ExecutionMonitor(models, enabled=False)
        node = LogicalPlanNode(name="x", description="", inputs=["left"], output="out",
                               family="project_result")
        assert monitor.inspect(node, None, {}, Table.from_rows("out", [{"a": 1}])) == []

    def test_monitor_flags_empty_output(self, corpus):
        models = ModelSuite.create(seed=1)
        monitor = ExecutionMonitor(models)
        node = LogicalPlanNode(name="gen_score", description="score each row",
                               inputs=["left"], output="out", family="semantic_score")
        from repro.fao.function import GeneratedFunction
        from repro.fao.signature import FunctionSignature
        from repro.relational.schema import Schema
        empty = Table("out", Schema([]))
        function = GeneratedFunction(signature=FunctionSignature.from_node(node),
                                     body=lambda i, c: empty, source_text="")
        inputs = {"left": Table.from_rows("left", [{"movie_id": 1}])}
        anomalies = monitor.inspect(node, function, inputs, empty)
        assert any("empty" in a.message for a in anomalies)
