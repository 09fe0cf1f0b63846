"""Unit tests for the FAO layer: signatures, functions, registry, library, agents."""

import pytest

from repro.data.workloads import FLAGSHIP_CLARIFICATION, build_default_workload
from repro.datamodel.lineage import LineageStore
from repro.datamodel.views import ViewPopulator
from repro.errors import FunctionExecutionError, FunctionGenerationError
from repro.fao.codegen import Coder, FAULT_SEMANTIC_REVERSED, FAULT_SYNTACTIC_FRAGILE
from repro.fao.critic import Critic
from repro.fao.function import FunctionContext, GeneratedFunction
from repro.fao.library import ImplementationLibrary
from repro.fao.profiler import Profiler
from repro.fao.registry import FunctionRegistry
from repro.fao.signature import FunctionSignature
from repro.interaction.channel import InteractionChannel
from repro.interaction.user import ScriptedUser
from repro.models.base import ModelSuite
from repro.optimizer.rewrites import fuse_score_chain
from repro.parser.logical_plan import LogicalPlanNode
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.relational.catalog import Catalog
from repro.relational.table import Table


@pytest.fixture()
def fao_models():
    return ModelSuite.create(seed=5)


@pytest.fixture()
def films_table():
    return Table.from_rows("films_with_text_entities", [
        {"movie_id": 1, "title": "Guilty by Suspicion", "year": 1991,
         "entity_terms": ["accused", "threat", "interrogation", "killed"],
         "object_classes": ["person", "suit"], "n_objects": 2,
         "saturation": 0.05, "color_variance": 100.0, "coverage": 0.2, "image_uri": "a.png"},
        {"movie_id": 2, "title": "Clean and Sober", "year": 1988,
         "entity_terms": ["dead", "threatened", "attack", "support"],
         "object_classes": ["person"], "n_objects": 1,
         "saturation": 0.02, "color_variance": 50.0, "coverage": 0.1, "image_uri": "b.png"},
        {"movie_id": 3, "title": "Midnight Circuit", "year": 2019,
         "entity_terms": ["garden", "tea", "dinner"],
         "object_classes": ["explosion", "gun", "car", "fire", "crowd"], "n_objects": 5,
         "saturation": 0.8, "color_variance": 4000.0, "coverage": 0.7, "image_uri": "c.png"},
    ])


def make_node(name, family, description="", inputs=None, output="out", pattern="one_to_one",
              **params):
    return LogicalPlanNode(name=name, description=description or name,
                           inputs=inputs or ["films_with_text_entities"], output=output,
                           dependency_pattern=pattern, parameters=params, family=family)


def make_context(models):
    return FunctionContext(models=models, catalog=Catalog())


class TestSignatureAndRegistry:
    def test_signature_from_node(self):
        node = make_node("classify_boring", family="classify_image",
                         inputs=["films_with_image_scene"],
                         output="films_with_boring_flag")
        signature = FunctionSignature.from_node(node)
        assert signature.to_dict()["inputs"] == ["films_with_image_scene"]
        assert "classify_boring" in signature.describe()

    def test_registry_versioning(self, fao_models, tmp_path):
        registry = FunctionRegistry(workspace=tmp_path)
        node = make_node("gen_excitement_score", family="semantic_score",
                         score_column="excitement_score",
                         concept="excitement", keywords=["gun"])
        coder = Coder(fao_models)
        first = registry.register(coder.generate(node))
        second = registry.register(coder.generate(node))
        assert (first.version, second.version) == (1, 2)
        assert registry.latest("gen_excitement_score") is second
        assert registry.get("gen_excitement_score", 1) is first
        assert registry.rollback("gen_excitement_score") is first
        assert registry.total_versions() == 2
        # Both versions are persisted to disk.
        files = list((tmp_path / "gen_excitement_score").glob("*"))
        assert len(files) == 4  # two source files + two metadata files

    def test_registry_unknown_lookups(self):
        registry = FunctionRegistry()
        with pytest.raises(FunctionGenerationError):
            registry.latest("ghost")
        with pytest.raises(FunctionGenerationError):
            registry.get("ghost", 1)
        node_fn = GeneratedFunction(
            signature=FunctionSignature("only", "", (), "out"),
            body=lambda inputs, context: Table.from_rows("out", [{"a": 1}]),
            source_text="def only(): ...")
        registry.register(node_fn)
        with pytest.raises(FunctionGenerationError):
            registry.rollback("only")
        assert "only" in registry.describe()


@pytest.fixture(scope="module")
def drafted_plans(corpus):
    """Plans of the six default shapes, a paraphrase and a novel request."""
    models = ModelSuite.create(seed=5)
    catalog = Catalog()
    ViewPopulator(models, catalog, LineageStore()).load_corpus(corpus)
    requests = {query.name: (query.nl_query, query.clarification_answers, query.corrections)
                for query in build_default_workload().queries}
    requests["paraphrase"] = ("Films whose plots are exciting and that were released after "
                              "2000: list them.", {"exciting": FLAGSHIP_CLARIFICATION}, [])
    requests["novel"] = ("List films released before 1980 whose plots are calm.", {}, [])
    plans = {}
    for name, (nl_query, answers, corrections) in requests.items():
        channel = InteractionChannel(ScriptedUser(dict(answers), list(corrections)))
        outcome = NLParser(models).parse(nl_query, channel)
        plans[name] = LogicalPlanGenerator(models, catalog).generate(outcome.sketch,
                                                                     outcome.intent)
    return plans


class TestLibraryClassification:
    def test_families_cover_flagship_nodes(self, drafted_plans):
        """Every drafted node carries a family the library builds it from."""
        library = ImplementationLibrary()
        seen = set()
        for plan in drafted_plans.values():
            for node in plan.nodes:
                assert library.candidates(node.family, node.name), node.name
                seen.add(node.family)
            # The family is bookkeeping, not part of the Figure 3 signature.
            assert "family" not in plan.to_json()
            fused, changed = fuse_score_chain(plan)
            if changed:
                fused_node = next(n for n in fused.nodes if n.family == "fused_scores")
                for spec in fused_node.parameters["sub_specs"]:
                    assert library.candidates(spec["family"], spec["name"])
        assert seen == set(library.families()) - {"fused_scores"}

    def test_parameter_driven_families(self, drafted_plans):
        """Flag and score filters share the purpose ``filter:``; the writer
        still declares distinct families for them."""
        boring = drafted_plans["find_boring_posters"]
        assert boring.node("filter_boring").family == "flag_filter"
        recent = drafted_plans["recent_exciting"]
        assert recent.node("filter_excitement_score").family == "score_filter"
        assert recent.node("filter_year_0").family == "relational_filter"
        assert recent.node("gen_excitement_score").family == "semantic_score"
        flagship = drafted_plans["flagship_exciting_boring"]
        assert flagship.node("gen_recency_score").family == "recency_score"

    def test_unknown_node_rejected(self, fao_models):
        """A node whose family has no templates is rejected by name."""
        for family in ("mystery_family", ""):
            with pytest.raises(FunctionGenerationError, match="mystery_operator"):
                Coder(fao_models).generate(make_node("mystery_operator", family=family))

    def test_candidates_sorted_by_accuracy(self):
        library = ImplementationLibrary()
        variants = library.candidates("classify_image")
        assert [v.variant for v in variants] == ["vlm_query", "cascade", "scene_statistics"]
        with pytest.raises(FunctionGenerationError):
            library.candidates("nonexistent_family")


class TestGeneratedImplementations:
    def test_semantic_score_embedding(self, fao_models, films_table):
        node = make_node("gen_excitement_score", family="semantic_score",
                         score_column="excitement_score",
                         concept="excitement",
                         keywords=["gun", "murder", "attack", "threat", "accused", "killed"])
        function = Coder(fao_models).generate(node, variant="embedding_similarity")
        output = function.execute({"films_with_text_entities": films_table},
                                  make_context(fao_models))
        scores = {row["title"]: row["excitement_score"] for row in output}
        assert scores["Guilty by Suspicion"] > scores["Midnight Circuit"]
        assert all(0.0 <= score <= 1.0 for score in scores.values())

    def test_semantic_score_keyword_variant_is_cheaper(self, fao_models, films_table):
        node = make_node("gen_excitement_score", family="semantic_score",
                         score_column="excitement_score",
                         concept="excitement", keywords=["accused", "threat"])
        coder = Coder(fao_models)
        cheap = coder.generate(node, variant="keyword_overlap")
        expensive = coder.generate(node, variant="embedding_similarity")
        assert cheap.cost_per_row_tokens < expensive.cost_per_row_tokens
        assert cheap.accuracy_prior < expensive.accuracy_prior

    def test_recency_score_normalization(self, fao_models, films_table):
        node = make_node("gen_recency_score", family="recency_score",
                         score_column="recency_score", year_column="year")
        function = Coder(fao_models).generate(node)
        output = function.execute({"films_with_text_entities": films_table},
                                  make_context(fao_models))
        by_title = {row["title"]: row["recency_score"] for row in output}
        assert by_title["Midnight Circuit"] == 1.0
        assert by_title["Clean and Sober"] == 0.0

    def test_combine_scores_weighted_sum(self, fao_models):
        table = Table.from_rows("scores", [
            {"movie_id": 1, "excitement_score": 1.0, "recency_score": 0.5}])
        node = make_node("combine_scores", family="combine_scores",
                         inputs=["scores"], output="combined",
                         weights={"excitement_score": 0.7, "recency_score": 0.3},
                         output_column="final_score", input_columns=["excitement_score",
                                                                     "recency_score"])
        function = Coder(fao_models).generate(node)
        output = function.execute({"scores": table}, make_context(fao_models))
        assert output[0]["final_score"] == pytest.approx(0.85)

    def test_combine_scores_defaults_to_score_columns(self, fao_models):
        table = Table.from_rows("scores", [{"a_score": 0.4, "b_score": 0.6}])
        node = make_node("combine_scores", family="combine_scores",
                         inputs=["scores"], output="combined",
                         output_column="final_score")
        output = Coder(fao_models).generate(node).execute({"scores": table},
                                                          make_context(fao_models))
        assert output[0]["final_score"] == pytest.approx(0.5)

    def test_classify_boring_scene_statistics(self, fao_models, films_table):
        node = make_node("classify_boring", family="classify_image",
                         inputs=["films_with_text_entities"],
                         output="flagged", flag_column="boring_poster", concept="boring_visual")
        function = Coder(fao_models).generate(node, variant="scene_statistics")
        output = function.execute({"films_with_text_entities": films_table},
                                  make_context(fao_models))
        flags = {row["title"]: row["boring_poster"] for row in output}
        assert flags["Guilty by Suspicion"] is True
        assert flags["Midnight Circuit"] is False

    def test_flag_and_score_and_relational_filters(self, fao_models, films_table):
        context = make_context(fao_models)
        flagged = Table.from_rows("flagged", [
            {"movie_id": 1, "boring_poster": True}, {"movie_id": 3, "boring_poster": False}])
        keep = Coder(fao_models).generate(
            make_node("filter_boring", family="flag_filter", inputs=["flagged"], output="kept",
                      flag_column="boring_poster", keep_if_true=True))
        assert [r["movie_id"] for r in keep.execute({"flagged": flagged}, context)] == [1]

        scored = Table.from_rows("scored", [{"movie_id": 1, "excitement_score": 0.9},
                                            {"movie_id": 2, "excitement_score": 0.1}])
        threshold = Coder(fao_models).generate(
            make_node("filter_excitement_score", family="score_filter",
                      inputs=["scored"], output="kept2",
                      score_column="excitement_score", threshold=0.4))
        assert len(threshold.execute({"scored": scored}, context)) == 1

        relational = Coder(fao_models).generate(
            make_node("filter_year_0", family="relational_filter",
                      inputs=["films_with_text_entities"], output="kept3",
                      column="year", op=">", value=1990))
        assert len(relational.execute({"films_with_text_entities": films_table}, context)) == 2

    def test_relational_filter_unknown_operator(self, fao_models):
        with pytest.raises(FunctionGenerationError):
            Coder(fao_models).generate(
                make_node("filter_year_0", family="relational_filter",
                          column="year", op="~", value=1))

    def test_join_results_drops_right_duplicates(self, fao_models):
        left = Table.from_rows("left_t", [{"movie_id": 1, "title": "A", "final_score": 0.9}])
        right = Table.from_rows("right_t", [{"movie_id": 1, "title": "A", "boring_poster": True}])
        node = make_node("join_results", family="join_results",
                         inputs=["left_t", "right_t"], output="joined",
                         join_key="movie_id", pattern="many_to_many")
        output = Coder(fao_models).generate(node).execute({"left_t": left, "right_t": right},
                                                          make_context(fao_models))
        assert len(output) == 1
        assert not any(name.endswith("_right") for name in output.column_names())

    def test_rank_falls_back_to_score_column(self, fao_models):
        table = Table.from_rows("t", [{"a_score": 0.2}, {"a_score": 0.9}])
        node = make_node("rank_films", family="rank", inputs=["t"], output="ranked",
                         sort_column="missing_column", descending=True, pattern="many_to_one")
        output = Coder(fao_models).generate(node).execute({"t": table}, make_context(fao_models))
        assert output[0]["a_score"] == 0.9

    def test_missing_input_raises_execution_error(self, fao_models):
        node = make_node("select_movie_columns", family="select_columns",
                         inputs=["movie_table"], output="films_base",
                         columns=["movie_id"])
        function = Coder(fao_models).generate(node)
        with pytest.raises(FunctionExecutionError):
            function.execute({}, make_context(fao_models))


class TestCoderFaultsAndRepair:
    def test_semantic_fault_injection_and_repair(self, fao_models, films_table):
        coder = Coder(fao_models, fault_injection={"gen_recency_score": FAULT_SEMANTIC_REVERSED})
        node = make_node("gen_recency_score", family="recency_score",
                         score_column="recency_score", year_column="year")
        buggy = coder.generate(node)
        output = buggy.execute({"films_with_text_entities": films_table},
                               make_context(fao_models))
        by_title = {row["title"]: row["recency_score"] for row in output}
        assert by_title["Clean and Sober"] == 1.0  # reversed!
        repaired = coder.repair(node, buggy, "recency_score decreases as year increases")
        fixed = repaired.execute({"films_with_text_entities": films_table},
                                 make_context(fao_models))
        assert {row["title"]: row["recency_score"] for row in fixed}["Midnight Circuit"] == 1.0
        assert "patched" in repaired.source_text

    def test_syntactic_fault_injection_and_repair(self, fao_models, films_table):
        heic = films_table.copy()
        heic.rows[0]["image_uri"] = "poster.heic"
        coder = Coder(fao_models, fault_injection={"classify_boring": FAULT_SYNTACTIC_FRAGILE})
        node = make_node("classify_boring", family="classify_image",
                         inputs=["films_with_text_entities"], output="flagged",
                         flag_column="boring_poster", concept="boring_visual")
        fragile = coder.generate(node, variant="scene_statistics")
        with pytest.raises(FunctionExecutionError):
            fragile.execute({"films_with_text_entities": heic}, make_context(fao_models))
        repaired = coder.repair(node, fragile, "unsupported image format: poster.heic")
        assert len(repaired.execute({"films_with_text_entities": heic},
                                    make_context(fao_models))) == 3

    def test_unknown_variant_rejected(self, fao_models):
        with pytest.raises(FunctionGenerationError):
            Coder(fao_models).generate(make_node("rank_films", family="rank",
                                                 pattern="many_to_one"),
                                       variant="quantum_sort")

    def test_generation_charges_tokens(self, fao_models):
        before = fao_models.cost_meter.total_tokens
        Coder(fao_models).generate(make_node("rank_films", family="rank", pattern="many_to_one"))
        assert fao_models.cost_meter.total_tokens > before


class TestProfilerAndCritic:
    def test_profiler_success(self, fao_models, films_table):
        node = make_node("gen_recency_score", family="recency_score",
                         score_column="recency_score", year_column="year")
        function = Coder(fao_models).generate(node)
        profile = Profiler(fao_models, sample_size=2).profile(
            function, {"films_with_text_entities": films_table}, make_context(fao_models))
        assert profile.success
        assert profile.rows_in == 2 and profile.rows_out == 2
        assert profile.runtime_s >= 0.0
        assert "ok" in profile.describe()

    def test_profiler_captures_failure(self, fao_models, films_table):
        coder = Coder(fao_models, fault_injection={"classify_boring": FAULT_SYNTACTIC_FRAGILE})
        heic = films_table.copy()
        for row in heic.rows:
            row["image_uri"] = "x.heic"
        node = make_node("classify_boring", family="classify_image",
                         inputs=["films_with_text_entities"], output="flagged",
                         flag_column="boring_poster", concept="boring_visual")
        profile = Profiler(fao_models).profile(
            coder.generate(node, variant="scene_statistics"),
            {"films_with_text_entities": heic}, make_context(fao_models))
        assert not profile.success
        assert "unsupported image format" in profile.error

    def test_critic_accepts_good_function(self, fao_models, films_table):
        node = make_node("gen_recency_score", family="recency_score",
                         score_column="recency_score", year_column="year")
        function = Coder(fao_models).generate(node)
        profile = Profiler(fao_models).profile(function, {"films_with_text_entities": films_table},
                                               make_context(fao_models))
        verdict = Critic(fao_models).review(function, profile, node)
        assert verdict.ok and verdict.checked_semantics

    def test_critic_repairs_reversed_recency(self, fao_models, films_table):
        coder = Coder(fao_models, fault_injection={"gen_recency_score": FAULT_SEMANTIC_REVERSED})
        node = make_node("gen_recency_score", family="recency_score",
                         description="Assign a recency score based on release year",
                         score_column="recency_score", year_column="year")
        registry = FunctionRegistry()
        buggy = registry.register(coder.generate(node))
        critic = Critic(fao_models)
        inputs = {"films_with_text_entities": films_table}
        fixed, profile, rounds, verdict = critic.review_and_repair(
            node, buggy, inputs, make_context(fao_models), coder, Profiler(fao_models),
            registry=registry)
        assert verdict.ok
        assert rounds >= 1
        assert fixed.version > buggy.version
        output = fixed.execute(inputs, make_context(fao_models))
        assert {r["title"]: r["recency_score"] for r in output}["Midnight Circuit"] == 1.0
