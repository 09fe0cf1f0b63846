"""Edge-case tests complementing the per-module suites."""

import pytest

from repro.errors import (
    AmbiguousQueryError,
    ExplanationError,
    FunctionExecutionError,
    SemanticAnomalyError,
)
from repro.executor.result import QueryResult
from repro.explain.explainer import Explainer
from repro.explain.lineage_query import LineageQueryInterface
from repro.fao.codegen import Coder, FAULT_SEMANTIC_REVERSED
from repro.models.base import ModelSuite
from repro.models.cost import CostMeter
from repro.optimizer.cost_model import CostModel
from repro.optimizer.profile_cache import ProfileCache
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.relational.catalog import Catalog
from repro.relational.expressions import and_, or_
from repro.relational.schema import Schema
from repro.relational.table import Table


class TestErrorTypes:
    def test_ambiguous_query_error_carries_question_and_term(self):
        error = AmbiguousQueryError("What does 'exciting' mean?", term="exciting")
        assert error.question.startswith("What does")
        assert error.term == "exciting"

    def test_function_execution_error_carries_cause(self):
        cause = ValueError("boom")
        error = FunctionExecutionError("failed", function_name="classify_boring", cause=cause)
        assert error.function_name == "classify_boring"
        assert error.cause is cause

    def test_semantic_anomaly_error_carries_evidence(self):
        error = SemanticAnomalyError("looks wrong", function_name="join", evidence={"rows": 3})
        assert error.evidence == {"rows": 3}


class TestExpressionConvenience:
    def test_empty_conjunction_and_disjunction(self):
        assert and_().evaluate({}) is True
        assert or_().evaluate({}) is False

    def test_single_term_passthrough(self):
        from repro.relational.expressions import lit
        assert and_(lit(False)).evaluate({}) is False
        assert or_(lit(True)).evaluate({}) is True


class TestSchemaMergePrefixes:
    def test_explicit_prefixes_avoid_suffixing(self):
        left = Schema.of(("movie_id", "int"), ("title", "text"))
        right = Schema.of(("movie_id", "int"), ("score", "float"))
        merged = left.merge(right, prefix_left="l_", prefix_right="r_")
        assert merged.column_names() == ["l_movie_id", "l_title", "r_movie_id", "r_score"]


class TestCostMeterLatencyFamilies:
    def test_family_specific_latency(self):
        meter = CostMeter()
        llm_call = meter.record("llm:sim", "x", 1000, 0)
        embedding_call = meter.record("embedding:lexicon", "x", 1000, 0)
        assert llm_call.latency_s > embedding_call.latency_s

    def test_unknown_family_uses_default(self):
        call = CostMeter().record("mystery-model", "x", 100, 0)
        assert call.latency_s > 0


class TestCostModelDefaults:
    def test_estimate_plan_tokens_with_default_per_row(self, small_catalog):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="select_movie_columns", description="",
                                 inputs=["movies"], output="films_base",
                                 family="select_columns",
                                 parameters={"columns": ["title"]}))
        total = CostModel(small_catalog).estimate_plan_tokens(plan)
        assert total == pytest.approx(4.0)  # 4 rows x default 1 token/row


class TestExplainerWithoutLineage:
    def test_explain_tuple_requires_lineage(self, models):
        explainer = Explainer(models)
        result = QueryResult(nl_query="x", final_table=Table("t", Schema([])))
        with pytest.raises(ExplanationError):
            explainer.explain_tuple(result, 1)

    def test_sql_over_lineage_requires_lineage(self, models):
        qa = LineageQueryInterface(models, Explainer(models))
        result = QueryResult(nl_query="x", final_table=Table("t", Schema([])))
        with pytest.raises(ExplanationError):
            qa.sql("SELECT count(*) AS n FROM lineage", result)


class TestCoderFaultScoping:
    def test_fault_only_applies_to_matching_family(self):
        models = ModelSuite.create(seed=2)
        coder = Coder(models, fault_injection={"rank_films": FAULT_SEMANTIC_REVERSED})
        node = LogicalPlanNode(name="rank_films", description="rank", inputs=["t"],
                               output="ranked", dependency_pattern="many_to_one", family="rank",
                               parameters={"sort_column": "score"})
        function = coder.generate(node)
        # The reversed-recency fault has no meaning for a rank node: nothing injected.
        assert "_inject_reversed" not in function.parameters


class TestProfileCacheMinSamples:
    def test_entries_below_min_samples_are_not_served(self):
        from repro.fao.profiler import ProfileResult
        cache = ProfileCache(min_samples=2)
        profile = ProfileResult(function_name="f", variant="v", success=True,
                                runtime_s=0.001, tokens_used=10, rows_in=2, rows_out=2)
        cache.record("semantic_score", "embedding_similarity", profile)
        assert cache.get("semantic_score", "embedding_similarity") is None
        cache.record("semantic_score", "embedding_similarity", profile)
        assert cache.get("semantic_score", "embedding_similarity") is not None


class TestCLIErrorPath:
    def test_main_returns_2_on_bad_clarify(self):
        from repro.cli import main
        assert main(["--query", "x", "--clarify", "not-a-pair"]) == 2


class TestCatalogIntermediateRegistration:
    def test_register_without_stats(self, small_catalog):
        table = Table.from_rows("derived", [{"a": 1}])
        entry = small_catalog.register(table, kind="intermediate", compute_stats=False)
        assert entry.stats is None
        assert small_catalog.entry("derived").kind == "intermediate"
