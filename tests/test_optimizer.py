"""Unit tests for the optimizer: cost model, rewrites, physical planning."""

import pytest

from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY
from repro.datamodel.lineage import LineageStore
from repro.datamodel.views import ViewPopulator
from repro.fao.registry import FunctionRegistry
from repro.interaction.channel import InteractionChannel
from repro.interaction.user import ScriptedUser, SilentUser
from repro.models.base import ModelSuite
from repro.optimizer.cost_model import CostModel
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.rewrites import applied_rewrites, fuse_score_chain, predicate_pushdown
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.relational.catalog import Catalog


@pytest.fixture(scope="module")
def opt_env(corpus):
    """A populated catalog plus the flagship logical plan (module-scoped)."""
    models = ModelSuite.create(seed=11)
    catalog = Catalog()
    ViewPopulator(models, catalog, LineageStore()).load_corpus(corpus)
    channel = InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                              [FLAGSHIP_CORRECTION]))
    outcome = NLParser(models).parse(FLAGSHIP_QUERY, channel)
    plan = LogicalPlanGenerator(models, catalog).generate(outcome.sketch, outcome.intent)
    return models, catalog, outcome, plan


def _year_filter_plan(models, catalog):
    """A small plan whose relational filter sits late (pushdown candidate)."""
    channel = InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}))
    outcome = NLParser(models).parse(
        "List films released after 2000 whose plots are exciting.", channel)
    return LogicalPlanGenerator(models, catalog).generate(outcome.sketch, outcome.intent)


class TestCostModel:
    def test_base_table_cardinality_from_catalog(self, opt_env):
        _, catalog, _, _ = opt_env
        model = CostModel(catalog)
        assert model.table_cardinality("movie_table") == 20
        assert model.table_cardinality("unknown_table") == 0

    def test_filter_selectivity_propagation(self, opt_env):
        _, catalog, _, _ = opt_env
        model = CostModel(catalog)
        node = LogicalPlanNode(name="filter_year_0", description="", inputs=["movie_table"],
                               output="filtered", parameters={"op": ">", "column": "year",
                                                              "value": 2000},
                               family="relational_filter")
        rows = model.estimate_output_cardinality(node, 20)
        assert 1 <= rows < 20
        assert model.table_cardinality("filtered") == 0  # not recorded until estimate()

    def test_estimate_uses_template_and_profile_costs(self, opt_env):
        models, catalog, _, plan = opt_env
        from repro.fao.codegen import Coder
        model = CostModel(catalog)
        node = plan.node("gen_excitement_score")
        expensive = Coder(models).generate(node, variant="embedding_similarity")
        cheap = Coder(models).generate(node, variant="keyword_overlap")
        node_input = plan.node("join_text_entities")
        model.record_output_cardinality(node_input.output, 20)
        assert model.estimate(node, expensive).tokens > model.estimate(node, cheap).tokens

    def test_estimate_plan_tokens_smaller_with_pushdown(self, opt_env):
        models, catalog, _, _ = opt_env
        plan = _year_filter_plan(models, catalog)
        pushed, changed = predicate_pushdown(plan, catalog)
        assert changed
        per_row = {node.name: (6.0 if node.name.startswith("gen_") else 0.1)
                   for node in plan.nodes}
        original = CostModel(catalog).estimate_plan_tokens(plan, per_row)
        optimized = CostModel(catalog).estimate_plan_tokens(pushed, per_row)
        assert optimized < original


class TestRewrites:
    def test_applied_rewrites_names(self):
        assert applied_rewrites(True, True) == ["predicate_pushdown", "operator_fusion"]
        assert applied_rewrites(False, False) == []

    def test_predicate_pushdown_moves_filter_to_source(self, opt_env):
        models, catalog, _, _ = opt_env
        plan = _year_filter_plan(models, catalog)
        filter_nodes = [n for n in plan.nodes if "op" in n.parameters]
        assert filter_nodes, "expected a relational filter in the plan"
        original_input = filter_nodes[0].inputs[0]
        assert original_input != "films_base"

        pushed, changed = predicate_pushdown(plan, catalog)
        assert changed
        moved = [n for n in pushed.nodes if "op" in n.parameters][0]
        assert moved.inputs == ["films_base"]
        # The plan is still structurally valid and the original is untouched.
        assert pushed.validate(catalog.table_names()) == []
        assert [n for n in plan.nodes if "op" in n.parameters][0].inputs[0] == original_input

    def test_predicate_pushdown_noop_without_filters(self, opt_env):
        _, catalog, _, plan = opt_env
        flagship_filters = [n for n in plan.nodes if "op" in n.parameters]
        assert not flagship_filters
        _, changed = predicate_pushdown(plan, catalog)
        assert not changed

    def test_fuse_score_chain(self, opt_env):
        _, catalog, _, plan = opt_env
        fused, changed = fuse_score_chain(plan)
        assert changed
        assert len(fused) < len(plan)
        fused_nodes = [n for n in fused.nodes if n.name.startswith("fused_")]
        assert len(fused_nodes) == 1
        sub_names = [s["name"] for s in fused_nodes[0].parameters["sub_specs"]]
        assert "gen_excitement_score" in sub_names and "combine_scores" in sub_names
        assert fused.validate(catalog.table_names()) == []

    def test_fuse_noop_on_short_chain(self, opt_env):
        models, catalog, _, _ = opt_env
        channel = InteractionChannel(SilentUser())
        outcome = NLParser(models).parse("Which films have a boring poster?", channel)
        plan = LogicalPlanGenerator(models, catalog).generate(outcome.sketch, outcome.intent)
        _, changed = fuse_score_chain(plan)
        assert not changed


class TestQueryOptimizer:
    def test_flagship_physical_plan_choices(self, opt_env):
        models, catalog, _, plan = opt_env
        optimizer = QueryOptimizer(models, catalog, FunctionRegistry())
        physical, report = optimizer.optimize(plan)
        assert len(physical) == len(plan)
        variants = report.chosen_variants
        assert variants["gen_excitement_score"] == "embedding_similarity"
        assert variants["classify_boring"] == "scene_statistics"
        assert report.candidates_evaluated >= len(plan)
        assert physical.total_estimated_tokens > 0
        assert 0.0 < physical.estimated_accuracy <= 1.0
        assert "physical plan" in physical.describe()

    def test_variant_override_forces_expensive_classifier(self, opt_env):
        models, catalog, _, plan = opt_env
        optimizer = QueryOptimizer(models, catalog, FunctionRegistry(),
                                   variant_overrides={"classify_boring": "vlm_query"},
                                   explore_variants=False)
        physical, report = optimizer.optimize(plan)
        assert report.chosen_variants["classify_boring"] == "vlm_query"
        assert physical.operator("classify_boring").estimated_tokens > 0

    def test_fusion_reduces_operator_count(self, opt_env):
        models, catalog, _, plan = opt_env
        fused_opt = QueryOptimizer(models, catalog, FunctionRegistry(), enable_fusion=True,
                                   explore_variants=False)
        physical, report = fused_opt.optimize(plan)
        assert "operator_fusion" in report.rewrites_applied
        assert len(physical) < len(plan)

    def test_registry_accumulates_versions(self, opt_env):
        models, catalog, _, plan = opt_env
        registry = FunctionRegistry()
        QueryOptimizer(models, catalog, registry, explore_variants=True).optimize(plan)
        assert registry.total_functions() == len(plan)
        assert registry.version_count("gen_excitement_score") >= 2  # both variants generated

    def test_parallel_codegen_matches_sequential_choices(self, opt_env):
        models, catalog, _, plan = opt_env
        sequential, seq_report = QueryOptimizer(models, catalog, FunctionRegistry(),
                                                explore_variants=False).optimize(plan)
        parallel, par_report = QueryOptimizer(models, catalog, FunctionRegistry(),
                                              explore_variants=False, parallel=True).optimize(plan)
        assert seq_report.chosen_variants == par_report.chosen_variants
        assert [op.name for op in sequential] == [op.name for op in parallel]

    def test_optimizer_report_describe(self, opt_env):
        models, catalog, _, plan = opt_env
        _, report = QueryOptimizer(models, catalog, FunctionRegistry(),
                                   explore_variants=False).optimize(plan)
        text = report.describe()
        assert "candidates evaluated" in text and "rewrites" in text
