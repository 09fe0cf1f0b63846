"""Unit tests for the query parser: sketches, NL parsing, logical plans, verification."""

import json

import pytest

from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY
from repro.errors import PlanError
from repro.gateway.gateway import ModelGateway
from repro.interaction.channel import InteractionChannel, InteractionKind
from repro.interaction.user import ScriptedUser, SilentUser
from repro.models.base import ModelSuite
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.parser.plan_verifier import CatalogToolUser, PlanVerifier
from repro.parser.sketch import QuerySketch


@pytest.fixture()
def parser_models():
    return ModelSuite.create(seed=3).routed(ModelGateway.pass_through(), "test")


@pytest.fixture()
def populated_catalog(corpus, parser_models):
    from repro.datamodel.lineage import LineageStore
    from repro.datamodel.views import ViewPopulator
    from repro.relational.catalog import Catalog

    catalog = Catalog()
    ViewPopulator(parser_models, catalog, LineageStore()).load_corpus(corpus)
    return catalog


class TestQuerySketch:
    def test_add_step_numbers_sequentially(self):
        sketch = QuerySketch(nl_query="q")
        sketch.add_step("first", purpose="a")
        sketch.add_step("second", purpose="b")
        assert [s.index for s in sketch] == [1, 2]
        assert sketch.step_by_purpose("b").description == "second"
        assert sketch.step_by_purpose("zzz") is None

    def test_describe_contains_all_steps(self):
        sketch = QuerySketch(nl_query="q", version=2)
        sketch.add_step("only step")
        text = sketch.describe()
        assert "v2" in text and "1. only step" in text

    def test_revised_bumps_version_and_clears_steps(self):
        sketch = QuerySketch(nl_query="q", version=1, clarifications={"a": "b"})
        sketch.add_step("x")
        revised = sketch.revised()
        assert revised.version == 2 and len(revised) == 0
        assert revised.clarifications == {"a": "b"}


class TestNLParser:
    def _channel(self, corrections=None):
        return InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                               corrections or []))

    def test_flagship_sketch_step_counts_match_paper(self, parser_models):
        parser = NLParser(parser_models)
        outcome = parser.parse(FLAGSHIP_QUERY, self._channel([FLAGSHIP_CORRECTION]))
        assert len(outcome.sketch_history[0]) == 8
        assert len(outcome.sketch) == 11
        assert outcome.sketch.version == 2
        assert outcome.correction_rounds == 1
        assert outcome.clarification_rounds == 1

    def test_clarification_recorded_in_transcript(self, parser_models):
        channel = self._channel()
        NLParser(parser_models).parse(FLAGSHIP_QUERY, channel)
        clarifications = channel.transcript.of_kind(InteractionKind.CLARIFICATION)
        assert clarifications
        assert "exciting" in clarifications[0].system_message

    def test_proactive_disabled_skips_clarification(self, parser_models):
        channel = self._channel()
        parser = NLParser(parser_models, proactive=False)
        outcome = parser.parse(FLAGSHIP_QUERY, channel)
        assert outcome.clarification_rounds == 0
        assert not channel.transcript.of_kind(InteractionKind.CLARIFICATION)

    def test_reactive_disabled_ignores_corrections(self, parser_models):
        parser = NLParser(parser_models, reactive=False)
        outcome = parser.parse(FLAGSHIP_QUERY, self._channel([FLAGSHIP_CORRECTION]))
        assert outcome.correction_rounds == 0
        assert outcome.intent.include_recency is False

    def test_silent_user_gets_default_interpretation(self, parser_models):
        channel = InteractionChannel(SilentUser())
        outcome = NLParser(parser_models).parse(FLAGSHIP_QUERY, channel)
        assert outcome.sketch.version == 1
        assert outcome.intent.semantic_scores  # defaults still produce a plan

    def test_correction_rounds_capped(self, parser_models):
        # A user who never says OK must not loop forever.
        endless = ScriptedUser(corrections=["more recency"] * 10)
        parser = NLParser(parser_models, max_correction_rounds=2)
        outcome = parser.parse(FLAGSHIP_QUERY, InteractionChannel(endless))
        assert outcome.correction_rounds == 2

    def test_sketch_mentions_keywords_and_boring(self, parser_models):
        outcome = NLParser(parser_models).parse(FLAGSHIP_QUERY,
                                                self._channel([FLAGSHIP_CORRECTION]))
        text = outcome.sketch.describe().lower()
        assert "keyword" in text and "boring" in text and "recency" in text


class TestLogicalPlanStructure:
    def test_duplicate_node_names_rejected(self):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="a", description="", inputs=[], output="t1"))
        with pytest.raises(PlanError):
            plan.add(LogicalPlanNode(name="a", description="", inputs=[], output="t2"))

    def test_validate_detects_unknown_inputs_and_duplicate_outputs(self):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="a", description="", inputs=["ghost"], output="t1"))
        plan.add(LogicalPlanNode(name="b", description="", inputs=["t1"], output="t1"))
        problems = plan.validate(["movie_table"])
        assert any("ghost" in p for p in problems)
        assert any("same output" in p for p in problems)

    def test_execution_order_topological(self):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="late", description="", inputs=["mid"], output="out"))
        plan.add(LogicalPlanNode(name="early", description="", inputs=["movie_table"],
                                 output="base"))
        plan.add(LogicalPlanNode(name="middle", description="", inputs=["base"], output="mid"))
        ordered = [n.name for n in plan.execution_order()]
        assert ordered.index("early") < ordered.index("middle") < ordered.index("late")

    def test_cycle_detection(self):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="a", description="", inputs=["b_out"], output="a_out"))
        plan.add(LogicalPlanNode(name="b", description="", inputs=["a_out"], output="b_out"))
        with pytest.raises(PlanError):
            plan.execution_order()

    def test_final_output_and_node_lookup(self):
        plan = LogicalPlan()
        with pytest.raises(PlanError):
            plan.final_output()
        plan.add(LogicalPlanNode(name="a", description="", inputs=[], output="t1"))
        assert plan.final_output() == "t1"
        assert plan.node("a").output == "t1"
        with pytest.raises(PlanError):
            plan.node("zzz")


class TestPlanGeneratorAndVerifier:
    def _plan(self, parser_models, populated_catalog, corrections=None):
        channel = InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                                  corrections or [FLAGSHIP_CORRECTION]))
        outcome = NLParser(parser_models).parse(FLAGSHIP_QUERY, channel)
        generator = LogicalPlanGenerator(parser_models, populated_catalog)
        return generator, outcome, generator.generate(outcome.sketch, outcome.intent)

    def test_flagship_plan_has_ten_nodes(self, parser_models, populated_catalog):
        _, _, plan = self._plan(parser_models, populated_catalog)
        assert len(plan) == 10
        names = [node.name for node in plan]
        for expected in ("select_movie_columns", "join_text_entities", "join_image_scene",
                         "gen_excitement_score", "gen_recency_score", "combine_scores",
                         "classify_boring", "filter_boring", "join_results", "rank_films"):
            assert expected in names

    def test_signature_json_matches_figure3_layout(self, parser_models, populated_catalog):
        _, _, plan = self._plan(parser_models, populated_catalog)
        payload = json.loads(plan.to_json())
        classify = [node for node in payload if node["name"] == "classify_boring"][0]
        assert set(classify) == {"name", "description", "inputs", "output"}
        assert classify["inputs"] == ["films_with_image_scene"]
        assert classify["output"] == "films_with_boring_flag"

    def test_dependency_patterns_assigned(self, parser_models, populated_catalog):
        _, _, plan = self._plan(parser_models, populated_catalog)
        assert plan.node("join_text_entities").dependency_pattern == "many_to_many"
        assert plan.node("gen_excitement_score").dependency_pattern == "one_to_one"

    def test_verifier_rejects_then_accepts_after_revision(self, parser_models, populated_catalog):
        generator, _, plan = self._plan(parser_models, populated_catalog)
        verifier = PlanVerifier(parser_models, populated_catalog)
        first = verifier.verify(plan)
        assert not first.approved
        assert any("join key" in hint for hint in first.hints)
        revised = generator.revise(plan, first.hints)
        second = verifier.verify(revised)
        assert second.approved
        assert second.tool_calls > 0

    def test_verifier_flags_unknown_input(self, parser_models, populated_catalog):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="bad", description="reads a ghost table",
                                 inputs=["ghost_table"], output="out"))
        report = PlanVerifier(parser_models, populated_catalog).verify(plan)
        assert not report.approved
        assert any("ghost_table" in p for p in report.problems)

    def test_verifier_flags_missing_column(self, parser_models, populated_catalog):
        plan = LogicalPlan()
        plan.add(LogicalPlanNode(name="select_movie_columns", description="select columns",
                                 inputs=["movie_table"], output="films_base",
                                 parameters={"columns": ["movie_id", "box_office"]}))
        report = PlanVerifier(parser_models, populated_catalog).verify(plan)
        assert not report.approved
        assert any("box_office" in p for p in report.problems)

    def test_non_flagship_plan_shapes(self, parser_models, populated_catalog):
        channel = InteractionChannel(SilentUser())
        outcome = NLParser(parser_models).parse("Which films have a boring poster?", channel)
        plan = LogicalPlanGenerator(parser_models, populated_catalog).generate(
            outcome.sketch, outcome.intent)
        names = [n.name for n in plan]
        assert "classify_boring" in names and "filter_boring" in names
        assert "gen_excitement_score" not in names
        assert names[-1] == "project_result"


class TestCatalogToolUser:
    def test_utilities(self, populated_catalog):
        tools = CatalogToolUser(populated_catalog)
        assert tools.row_count("movie_table") == 20
        assert "movie_id" in tools.column_names("movie_table")
        assert tools.joinability("movie_table", "film_plot") == ["movie_id"]
        assert len(tools.sample_rows("movie_table", 2)) == 2
        assert tools.calls == 4
