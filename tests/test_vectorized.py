"""Tests for vectorized execution: the gateway batch client, the batched FAO
bodies and view populators, windowed gateway stats, selective corpus-reload
invalidation, and the ``Table.rows`` mutation guard.

The vectorization contract is *bit-identical rows at a sub-linear token
bill*: every test here either pins element-wise equivalence between the
serial and the batched path, or pins the accounting (partial cache hits,
per-session reconciliation, batch stats).
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import KathDBConfig, KathDBService, QueryRequest, ScriptedUser
from repro.data.mmqa import build_movie_corpus
from repro.data.workloads import FLAGSHIP_CLARIFICATION
from repro.datamodel.lineage import LineageStore
from repro.datamodel.scene_graph import populate_scene_graph
from repro.datamodel.text_graph import populate_text_graph
from repro.errors import SessionQuotaExceededError
from repro.fao.codegen import Coder
from repro.fao.function import FunctionContext
from repro.gateway.gateway import GatewayConfig, ModelGateway
from repro.models.cascade import CascadeStage, ModelCascade
from repro.models.base import ModelSuite
from repro.models.cost import BatchedModelCall
from repro.parser.logical_plan import LogicalPlanNode
from repro.relational.catalog import Catalog
from repro.relational.indexes import HashIndex
from repro.relational.table import Table

KEYWORDS = ["gun", "fight", "attack", "explosion"]


def match_fraction_many(suite, query_terms, candidate_lists):
    """One vectorized ``match_fraction`` per candidate list."""
    return suite.call_many("embeddings", "match_fraction",
                           [((query_terms, candidates), {})
                            for candidates in candidate_lists])


def pass_through_suite():
    """A suite whose calls all execute: routed through a pass-through gateway."""
    return ModelSuite.create(seed=7).routed(ModelGateway.pass_through(), "test")


def make_node(name, family, inputs, output, **params):
    return LogicalPlanNode(name=name, description=name, inputs=inputs,
                           output=output, dependency_pattern="one_to_one",
                           parameters=params, family=family)


@pytest.fixture(scope="module")
def vec_corpus():
    return build_movie_corpus(size=12, seed=7)


@pytest.fixture(scope="module")
def vec_tables(vec_corpus):
    return vec_corpus.to_tables()


@pytest.fixture()
def vec_catalog(vec_tables):
    catalog = Catalog()
    catalog.register(vec_tables["poster_images"], kind="base")
    return catalog


def films_for_classify(vec_tables):
    """Rows with scene stats spanning confident and uncertain cheap scores."""
    poster_ids = [row["movie_id"] for row in vec_tables["poster_images"]][:6]
    shapes = [
        # (n_objects, object_classes, saturation): mixes confident cheap
        # decisions with uncertain ones that escalate to the VLM.
        (0, [], 0.0),
        (3, ["person"], 0.05),
        (5, ["explosion", "gun", "fire"], 0.8),
        (2, ["person", "suit"], 0.1),
        (4, ["car", "crowd"], 0.3),
        (1, ["tree"], 0.02),
    ]
    rows = [{"movie_id": movie_id, "n_objects": n, "object_classes": classes,
             "saturation": saturation}
            for movie_id, (n, classes, saturation) in zip(poster_ids, shapes)]
    # One row without a poster: both variants must keep their serial
    # missing-image behaviour (NULL outcome / cheap fallback).
    rows.append({"movie_id": 999999, "n_objects": 3, "object_classes": [],
                 "saturation": 0.1})
    return Table.from_rows("films_with_image_scene", rows)


def films_for_scoring():
    terms = [["gun", "murder", "chase"], [], ["garden", "tea"],
             ["explosion", "fight", "attack", "war"], ["dinner"],
             ["gun", "murder", "chase"]]  # a duplicate row, deduped in-batch
    return Table.from_rows("films_with_text_entities", [
        {"movie_id": i, "entity_terms": t} for i, t in enumerate(terms)])


def run_variant(variant, batch_size, models, catalog, table, family_node):
    function = Coder(models).generate(family_node, variant=variant)
    context = FunctionContext(models=models, catalog=catalog,
                              batch_size=batch_size)
    output = function.execute({family_node.inputs[0]: table}, context)
    return [dict(row) for row in output]


class TestBodyEquivalence:
    """Element-wise vectorized-vs-serial equivalence per rewritten body."""

    def test_embedding_match_density(self, vec_catalog):
        models = pass_through_suite()
        node = make_node("gen_excitement_score", "semantic_score",
                         ["films_with_text_entities"],
                         "scored", keywords=KEYWORDS, concept="excitement",
                         score_column="excitement_score")
        serial = run_variant("embedding_similarity", 0, models, vec_catalog,
                             films_for_scoring(), node)
        batched = run_variant("embedding_similarity", 4, models, vec_catalog,
                              films_for_scoring(), node)
        assert serial == batched
        assert any(row["excitement_score"] > 0 for row in serial)

    def test_vlm_classify(self, vec_tables, vec_catalog):
        models = pass_through_suite()
        node = make_node("classify_boring", "classify_image", ["films_with_image_scene"],
                         "flagged", flag_column="boring_poster",
                         concept="boring_visual")
        films = films_for_classify(vec_tables)
        serial = run_variant("vlm_query", 0, models, vec_catalog, films, node)
        batched = run_variant("vlm_query", 3, models, vec_catalog, films, node)
        assert serial == batched
        # The posterless row keeps its NULL outcome.
        assert serial[-1]["boring_poster"] is None

    def test_cascade(self, vec_tables, vec_catalog):
        models = pass_through_suite()
        node = make_node("classify_boring", "classify_image", ["films_with_image_scene"],
                         "flagged", flag_column="boring_poster",
                         concept="boring_visual")
        films = films_for_classify(vec_tables)
        serial = run_variant("cascade", 0, models, vec_catalog, films, node)
        meter_marker = len(models.cost_meter.calls)
        batched = run_variant("cascade", 3, models, vec_catalog, films, node)
        assert serial == batched
        # The cascade only escalates uncertain rows; the batched pass must
        # not have queried the VLM for every row.
        vlm_calls = [c for c in models.cost_meter.calls[meter_marker:]
                     if c.model.startswith("vlm")]
        assert 0 < sum(getattr(c, "batch_size", 1) for c in vlm_calls) < len(serial)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_cascade_equals_model_cascade_run(self, vec_tables, vec_catalog, chunk):
        """The cascade body decides every row as ModelCascade.run would.

        The reference stages are built apart from the body: the scene
        variant's score, trusted by its distance from 0.5, then a raw VLM
        visual question (posterless rows keep the cheap answer).
        """
        node = make_node("classify_boring", "classify_image", ["films_with_image_scene"],
                         "flagged", flag_column="boring_poster",
                         concept="boring_visual")
        films = films_for_classify(vec_tables)
        scene_rows = run_variant("scene_statistics", 0, pass_through_suite(),
                                 vec_catalog, films, node)
        reference_vlm = ModelSuite.create(seed=7).vlm
        image_by_movie = {row["movie_id"]: row["image"]
                          for row in vec_tables["poster_images"]}

        def cheap(row):
            score = row["boring_score"]
            return ({"boring_score": score, "boring_poster": row["boring_poster"]},
                    min(1.0, abs(score - 0.5) * 2))

        def expensive(row):
            image = image_by_movie.get(row["movie_id"])
            if image is None:
                return cheap(row)[0], 1.0
            answer = reference_vlm.answer_visual_question(
                image, "Is this poster boring and plain?")
            return ({"boring_score": round(float(answer["boring_score"]), 6),
                     "boring_poster": bool(answer["answer"])}, 1.0)

        cascade = ModelCascade([CascadeStage("scene_statistics", cheap, threshold=0.6),
                                CascadeStage("vlm_query", expensive, threshold=0.0)])
        decisions = cascade.run_many(scene_rows)
        escalated = [row["movie_id"] for row, decision in zip(scene_rows, decisions)
                     if decision.stages_used > 1]
        with_poster = [movie_id for movie_id in escalated if movie_id in image_by_movie]
        # The fixture escalates a posterless row and leaves some rows cheap.
        assert 999999 in escalated
        assert 0 < len(with_poster) < len(escalated) < len(films)

        models = pass_through_suite()
        function = Coder(models).generate(node, variant="cascade")
        counters = models.gateway_client.counters
        marker = counters.snapshot()
        output = function.execute({node.inputs[0]: films}, FunctionContext(
            models=models, catalog=vec_catalog, batch_size=chunk))
        assert [{k: row[k] for k in ("boring_score", "boring_poster")} for row in output] \
            == [decision.prediction for decision in decisions]
        # Only escalated rows with a poster reach the VLM: the funnel
        # executes one member per such row.  A one-member chunk runs as the
        # serial call, billed as plain records rather than as a batch.
        assert counters.delta(marker)["misses"] == len(with_poster)
        vlm_calls = [c for c in models.cost_meter.calls if c.model.startswith("vlm")]
        batched = [c for c in vlm_calls if isinstance(c, BatchedModelCall)]
        assert sum(c.members for c in batched) == sum(counters.batch_sizes)
        if chunk == 1:
            assert not batched and vlm_calls

    def test_bodies_batch_through_a_routed_suite(self, vec_catalog):
        """A full gateway returns the pass-through rows and fills its cache."""
        models = pass_through_suite()
        gateway = ModelGateway(GatewayConfig())
        routed = models.fork().routed(gateway, "s1")
        node = make_node("gen_excitement_score", "semantic_score",
                         ["films_with_text_entities"],
                         "scored", keywords=KEYWORDS, concept="excitement",
                         score_column="excitement_score")
        serial = run_variant("embedding_similarity", 0, models, vec_catalog,
                             films_for_scoring(), node)
        batched = run_variant("embedding_similarity", 4, routed, vec_catalog,
                              films_for_scoring(), node)
        assert serial == batched
        stats = gateway.flat_stats()
        assert stats["batches"] >= 1
        assert stats["cache_entries"] > 0


class TestPopulatorEquivalence:
    def test_scene_graph_rows_and_lineage_match(self, vec_tables):
        posters = vec_tables["poster_images"]
        serial_models = pass_through_suite()
        batched_models = pass_through_suite()
        serial = populate_scene_graph(posters.rows, serial_models,
                                      lineage=LineageStore(), parent_lid=1,
                                      batch_size=1)
        batched = populate_scene_graph(posters.rows, batched_models,
                                       lineage=LineageStore(), parent_lid=1,
                                       batch_size=5)
        for name, table in serial.as_dict().items():
            assert [dict(r) for r in table] == \
                [dict(r) for r in batched.as_dict()[name]], name
        # Sub-linear bill: the batched arm paid strictly less for the same rows.
        assert batched_models.cost_meter.total_tokens < \
            serial_models.cost_meter.total_tokens
        assert batched_models.cost_meter.batch_tokens_saved > 0

    def test_text_graph_rows_and_lineage_match(self, vec_tables):
        plots = vec_tables["film_plot"]
        serial_models = pass_through_suite()
        batched_models = pass_through_suite()
        serial = populate_text_graph(plots.rows, serial_models,
                                     lineage=LineageStore(), parent_lid=1,
                                     batch_size=1)
        batched = populate_text_graph(plots.rows, batched_models,
                                      lineage=LineageStore(), parent_lid=1,
                                      batch_size=4)
        for name, table in serial.as_dict().items():
            assert [dict(r) for r in table] == \
                [dict(r) for r in batched.as_dict()[name]], name
        assert batched_models.cost_meter.total_tokens < \
            serial_models.cost_meter.total_tokens


class TestGatewayBatchClient:
    def _routed(self, **config):
        models = ModelSuite.create(seed=7)
        gateway = ModelGateway(GatewayConfig(**config))
        return gateway, models.fork().routed(gateway, "s1")

    def test_partial_hits_batch_only_the_misses(self):
        gateway, routed = self._routed()
        client = routed.gateway_client
        lists = [["war", "battle"], ["picnic", "tea"], ["gun", "chase"],
                 ["calm", "beach"]]
        # Warm two members through the *serial* proxy path: serial and batch
        # traffic must share fingerprints, so these become batch hits.
        routed.embeddings.match_fraction(KEYWORDS, lists[0])
        routed.embeddings.match_fraction(KEYWORDS, lists[2])
        warm = client.counters.snapshot()

        scores = match_fraction_many(routed, KEYWORDS, lists)
        delta = client.counters.delta(warm)
        assert delta["hits"] == 2
        assert delta["misses"] == 2          # only the misses executed
        assert delta["batch_calls"] == 1     # ... as one batched invocation
        assert client.counters.batch_sizes[-1] == 2
        assert delta["tokens_saved"] > 0

        # Every member (hit or computed) is now cached: a re-issue of the
        # full vector answers entirely from the cache and charges nothing.
        rerun_marker = client.counters.snapshot()
        rerun = match_fraction_many(routed, KEYWORDS, lists)
        rerun_delta = client.counters.delta(rerun_marker)
        assert rerun == scores
        assert rerun_delta["hits"] == len(lists)
        assert rerun_delta["misses"] == 0
        assert rerun_delta["tokens_charged"] == 0

    def test_per_session_accounting_reconciles(self):
        gateway, routed = self._routed()
        client = routed.gateway_client
        routed.embeddings.match_fraction(KEYWORDS, ["war", "battle"])
        match_fraction_many(routed, KEYWORDS,
                            [["war", "battle"], ["picnic"], ["gun", "chase"]])
        counters = client.counters
        # What the gateway charged the session == its admission ledger ==
        # what actually landed on the session's own meter.
        assert counters.tokens_charged == gateway.admission.spent("s1")
        assert counters.tokens_charged == routed.cost_meter.total_tokens
        # And the discount is auditable on the meter's batched records.
        assert routed.cost_meter.batch_tokens_saved == counters.batch_tokens_saved

    def test_duplicate_members_share_one_computation(self):
        gateway, routed = self._routed()
        scores = match_fraction_many(routed, KEYWORDS, [["war", "battle"]] * 5)
        assert len(set(scores)) == 1
        assert gateway.flat_stats()["cache_entries"] == 1

    def test_duplicates_across_chunk_boundaries_execute_once(self):
        # 5 distinct members + a duplicate of the first at the far end,
        # chunk size 4: the duplicate must ride its representative's chunk
        # (in-batch dedup), not re-execute in a later one.
        gateway, routed = self._routed(max_batch=4)
        lists = [[f"term{i}", "battle"] for i in range(5)] + [["term0", "battle"]]
        scores = match_fraction_many(routed, KEYWORDS, lists)
        assert scores[0] == scores[-1]
        counters = routed.gateway_client.counters
        assert counters.batch_calls == 2
        # 6 logical misses but only 5 distinct executions' worth of charge:
        # the duplicate shared its representative's computation.
        assert counters.misses == 6
        assert gateway.flat_stats()["cache_entries"] == 5

    def test_one_member_chunk_is_not_counted_as_a_batch(self):
        # A one-call vector, then a two-call vector whose first member hits:
        # the lone miss runs as a serial call, so neither the session's
        # batch counters nor BatchStats count a batch.
        gateway, routed = self._routed()
        routed.call_many("embeddings", "embed_text", [(("a calm walk",), {})])
        routed.call_many("embeddings", "embed_text",
                         [(("a calm walk",), {}), (("a loud chase",), {})])
        counters = routed.gateway_client.counters
        assert (counters.hits, counters.misses) == (1, 2)
        assert counters.batch_calls == 0 == gateway.stats()["batching"]["batches"]
        assert counters.batch_sizes == []

    def test_semantic_tier_stays_live_for_vectors(self):
        # With the near-match tier enabled, the batch client consults it
        # per member (tests/test_semantic_ann.py covers the multi-member
        # composition; a one-call vector is exactly a serial call).
        gateway, routed = self._routed(enable_semantic=True,
                                       semantic_threshold=0.95)
        match_fraction_many(routed, KEYWORDS, [["war", "battle"]])
        marker = routed.gateway_client.counters.snapshot()
        # A near-identical (not byte-identical) candidate list: the exact
        # cache misses, the semantic tier answers.
        match_fraction_many(routed, KEYWORDS, [["war", "battle", "battle"]])
        delta = routed.gateway_client.counters.delta(marker)
        assert delta["semantic_hits"] == 1
        assert delta["batch_calls"] == 0

    def test_batching_disabled_falls_back_to_serial_funnel(self):
        gateway, routed = self._routed(enable_batching=False)
        client = routed.gateway_client
        scores = match_fraction_many(routed, KEYWORDS,
                                     [["war", "battle"], ["picnic"]])
        assert len(scores) == 2
        assert client.counters.batch_calls == 0
        assert client.counters.misses == 2

    def test_quota_refuses_batches_beyond_the_budget(self):
        gateway, routed = self._routed(session_token_quota=1)
        match_fraction_many(routed, KEYWORDS, [["war", "battle"]] * 2)
        with pytest.raises(SessionQuotaExceededError):
            match_fraction_many(routed, KEYWORDS, [["picnic"], ["beach"]])

    def test_concurrent_identical_batches_coalesce(self):
        """Batch members publish into the in-flight table: with the cache
        off, two sessions issuing the same vector execute each member once
        service-wide — one side leads each member, the other coalesces."""
        import threading

        class SlowModel:
            """Sleeps per call so both batches overlap deterministically."""
            name = "stub:slow-batch"
            BATCH_OVERHEAD_TOKENS = 4

            def __init__(self, meter):
                self.cost_meter = meter

            def ask(self, prompt, purpose="ask"):
                time.sleep(0.05)
                if self.cost_meter is not None:
                    self.cost_meter.record(self.name, purpose,
                                           prompt_tokens=10, completion_tokens=0)
                return {"echo": prompt}

        from repro.gateway.vectorized import GatewayBatchClient
        from repro.models.cost import CostMeter

        gateway = ModelGateway(GatewayConfig(enable_cache=False))
        calls = [((f"prompt-{i}",), {}) for i in range(6)]
        barrier = threading.Barrier(2)
        outputs = {}

        def run(session_id):
            model = SlowModel(CostMeter())
            batch_client = GatewayBatchClient(gateway.client(session_id))
            barrier.wait()
            outputs[session_id] = batch_client.invoke(model, "ask", calls)

        threads = [threading.Thread(target=run, args=(sid,))
                   for sid in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outputs["a"] == outputs["b"]
        counters = [gateway.client(sid).counters for sid in ("a", "b")]
        # Each member executed exactly once service-wide: the six
        # leaderships split between the sessions, the rest coalesced.
        assert sum(c.misses for c in counters) == len(calls)
        assert sum(c.coalesced for c in counters) == len(calls)
        assert sum(c.tokens_charged for c in counters) > 0
        assert gateway.coalescer.stats.coalesced == len(calls)


#: Candidate lists far enough apart that only their case/order variants are
#: semantic near-matches (and those have identical exact answers).
DIFF_BASE = [("war", "battle"), ("picnic", "tea", "garden"), ("gun", "chase"),
             ("calm", "beach"), ("ghost", "scream", "night")]
DIFF_VARIANTS = {
    "same": list,
    "title": lambda terms: [t.title() for t in terms],
    "reversed": lambda terms: list(reversed(terms)),
}
DIFF_FLAGS = ("enable_cache", "enable_coalescing", "enable_batching",
              "enable_semantic")
_DIFF_MOVIES = build_movie_corpus(size=len(DIFF_BASE), seed=7).movies
_DIFF_QUESTIONS = {"same": "Is this poster boring and plain?",
                   "title": "Is this poster vivid and action-packed?",
                   "reversed": "Does the poster contain a gun?"}


def _diff_text(index, variant):
    return " ".join(DIFF_VARIANTS[variant](_DIFF_MOVIES[index].plot.split()))


#: Every method that used to have a ``*_batch`` twin: (kind, method) -> the
#: call for one (base index, variant) pick.
DIFF_CALLS = {
    ("embeddings", "match_fraction"): lambda index, variant: (
        (KEYWORDS, DIFF_VARIANTS[variant](DIFF_BASE[index])), {}),
    ("embeddings", "embed_text"): lambda index, variant: (
        (_diff_text(index, variant),), {}),
    ("ner", "extract"): lambda index, variant: ((_diff_text(index, variant),), {}),
    ("vlm", "extract_scene_graph"): lambda index, variant: (
        (_DIFF_MOVIES[index].poster,), {}),
    ("vlm", "answer_visual_question"): lambda index, variant: (
        (_DIFF_MOVIES[index].poster, _DIFF_QUESTIONS[variant]), {}),
    ("detector", "detect"): lambda index, variant: ((_DIFF_MOVIES[index].poster,), {}),
    ("ocr", "extract_text"): lambda index, variant: ((_DIFF_MOVIES[index].poster,), {}),
}


def _comparable(result):
    """Results as comparable values (embeddings are numpy vectors)."""
    return result.tobytes() if hasattr(result, "tobytes") else repr(result)


class TestSerialVectorDifferential:
    """``call_many`` is a serial loop of the declared method, for every
    method that used to have a ``*_batch`` twin."""

    @staticmethod
    def _run(config, kind, method, warm, calls, vectorized):
        gateway = ModelGateway(GatewayConfig(semantic_threshold=0.999,
                                             **config))
        routed = ModelSuite.create(seed=7).fork().routed(gateway, "s1")
        serial = getattr(getattr(routed, kind), method)
        for index in warm:
            args, kwargs = DIFF_CALLS[kind, method](index, "same")
            serial(*args, **kwargs)
        client = routed.gateway_client
        marker = client.counters.snapshot()
        if vectorized:
            results = routed.call_many(kind, method, calls)
        else:
            results = [serial(*args, **kwargs) for args, kwargs in calls]
        delta = client.counters.delta(marker)
        assert (delta["hits"] + delta["semantic_hits"] + delta["misses"]
                + delta["coalesced"]) == len(calls)
        assert client.counters.tokens_charged == gateway.admission.spent("s1") \
            == routed.cost_meter.total_tokens
        ledger = [(c.model, c.purpose, c.total_tokens)
                  for c in routed.cost_meter.calls]
        return ([_comparable(result) for result in results],
                client.counters.as_dict(), ledger)

    def _check(self, kind_method, config, max_batch, warm, picks):
        kind, method = kind_method
        config = dict(config, max_batch=max_batch)
        calls = [DIFF_CALLS[kind_method](index, variant) for index, variant in picks]
        serial, serial_counters, serial_ledger = self._run(
            config, kind, method, warm, calls, False)
        vector, vector_counters, vector_ledger = self._run(
            config, kind, method, warm, calls, True)
        assert vector == serial
        if not config["enable_batching"]:
            assert vector_ledger == serial_ledger
            assert vector_counters == serial_counters

    @settings(max_examples=50, deadline=None)
    @given(config=st.fixed_dictionaries({flag: st.booleans() for flag in DIFF_FLAGS}),
           max_batch=st.sampled_from([2, 32]),
           warm=st.lists(st.integers(0, len(DIFF_BASE) - 1), max_size=3),
           picks=st.lists(st.tuples(st.integers(0, len(DIFF_BASE) - 1),
                                    st.sampled_from(sorted(DIFF_VARIANTS))),
                          min_size=1, max_size=8))
    def test_vector_matches_serial_loop(self, config, max_batch, warm, picks):
        self._check(("embeddings", "match_fraction"), config, max_batch, warm, picks)

    @pytest.mark.parametrize("kind_method", sorted(
        set(DIFF_CALLS) - {("embeddings", "match_fraction")}), ids=".".join)
    @settings(max_examples=50, deadline=None)
    @given(config=st.fixed_dictionaries({flag: st.booleans() for flag in DIFF_FLAGS}),
           max_batch=st.sampled_from([2, 32]),
           warm=st.lists(st.integers(0, len(DIFF_BASE) - 1), max_size=3),
           picks=st.lists(st.tuples(st.integers(0, len(DIFF_BASE) - 1),
                                    st.sampled_from(sorted(DIFF_VARIANTS))),
                          min_size=1, max_size=8))
    def test_former_twin_matches_serial_loop(self, kind_method, config, max_batch,
                                             warm, picks):
        self._check(kind_method, config, max_batch, warm, picks)

    @pytest.mark.parametrize("kind_method", sorted(DIFF_CALLS), ids=".".join)
    def test_every_former_twin_batches(self, kind_method):
        kind, method = kind_method
        calls = [DIFF_CALLS[kind_method](index, "same")
                 for index in range(len(DIFF_BASE))]
        serial, _, serial_ledger = self._run({}, kind, method, [], calls, False)
        vector, counters, vector_ledger = self._run({}, kind, method, [], calls, True)
        assert vector == serial
        assert counters["batch_calls"] == 1
        assert sum(tokens for _, _, tokens in vector_ledger) < \
            sum(tokens for _, _, tokens in serial_ledger)


class TestWindowedStats:
    def test_window_counts_recent_traffic_only(self):
        gateway, routed = ModelGateway(GatewayConfig()), None
        models = ModelSuite.create(seed=7)
        routed = models.fork().routed(gateway, "s1")
        routed.embeddings.match_fraction(KEYWORDS, ["war", "battle"])
        routed.embeddings.match_fraction(KEYWORDS, ["war", "battle"])  # hit
        windowed = gateway.windowed_stats(60.0)
        assert windowed["requests"] == 2
        assert windowed["misses"] == 1
        assert windowed["hits"] == 1
        assert windowed["tokens_charged"] > 0
        assert windowed["tokens_saved"] > 0
        time.sleep(0.05)
        assert gateway.windowed_stats(0.01)["requests"] == 0

    def test_service_surface(self, vec_corpus):
        service = KathDBService(KathDBConfig(seed=7, monitor_enabled=False,
                                             explore_variants=False))
        service.load_corpus(vec_corpus)
        stats = service.gateway_stats(window_s=300.0)
        assert stats["windowed"]["requests"] > 0
        assert "requests_per_s" in stats["windowed"]
        # The plain call keeps its historical flat shape.
        assert "windowed" not in service.gateway_stats()
        service.shutdown()


class TestCorpusReloadInvalidation:
    def test_text_keyed_entries_survive_reload(self, vec_corpus):
        service = KathDBService(KathDBConfig(seed=7, monitor_enabled=False,
                                             explore_variants=False))
        service.load_corpus(vec_corpus)
        first_load = service.total_tokens()
        hits_before = service.gateway.flat_stats()["cache_hits"]

        service.load_corpus(vec_corpus)
        reload_tokens = service.total_tokens() - first_load
        hits_after = service.gateway.flat_stats()["cache_hits"]
        # Text-keyed extraction results survived: the reload answered the
        # NER pass from the cache (hits) and re-paid only the URI-keyed
        # (image) side, so it cost a fraction of the first load.
        assert hits_after > hits_before
        assert 0 < reload_tokens < first_load * 0.6
        service.shutdown()

    def test_uri_keyed_entries_are_dropped(self):
        gateway = ModelGateway(GatewayConfig())
        models = ModelSuite.create(seed=7)
        routed = models.fork().routed(gateway, "s1")
        image = build_movie_corpus(size=3, seed=7).movies[0].poster
        routed.vlm.extract_scene_graph(image)              # URI-keyed
        routed.ner.extract("John fights the fire.")        # text-keyed
        assert gateway.flat_stats()["cache_entries"] == 2
        dropped = gateway.clear(volatile_only=True)
        assert dropped == 1
        # The text-keyed entry still answers; the URI-keyed one re-executes.
        marker = routed.gateway_client.counters.snapshot()
        routed.ner.extract("John fights the fire.")
        assert routed.gateway_client.counters.delta(marker)["hits"] == 1


class TestRowsMutationGuard:
    def test_appends_stay_suffix_indexable(self):
        table = Table.from_rows("t", [{"k": 1}, {"k": 2}])
        index = HashIndex(table, "k")
        version = table.non_append_version
        table.rows.append({"k": 3})
        assert table.non_append_version == version  # append-only contract
        assert index.lookup_one(3) == {"k": 3}

    def test_structural_mutation_bumps_and_rebuilds(self):
        table = Table.from_rows("t", [{"k": 1}, {"k": 2}])
        index = HashIndex(table, "k")
        assert index.lookup_one(1) == {"k": 1}
        table.rows[0] = {"k": 9}            # bypasses validation, not tracking
        assert index.lookup_one(9) == {"k": 9}
        assert index.lookup_one(1) is None
        del table.rows[0]
        assert index.lookup_one(9) is None
        table.rows.sort(key=lambda r: -r["k"])
        assert index.lookup_one(2) == {"k": 2}

    def test_wholesale_replacement_bumps(self):
        table = Table.from_rows("t", [{"k": 1}])
        index = HashIndex(table, "k")
        table.rows = [{"k": 7}, {"k": 8}]
        assert index.lookup_one(7) == {"k": 7}
        assert index.lookup_one(1) is None

    def test_reads_behave_like_the_raw_list(self):
        table = Table.from_rows("t", [{"k": 1}, {"k": 2}, {"k": 3}])
        assert table.rows[0] == {"k": 1}
        assert table.rows[:2] == [{"k": 1}, {"k": 2}]
        assert list(table.rows) == [{"k": 1}, {"k": 2}, {"k": 3}]
        assert len(table.rows) == 3
        assert table.rows == [{"k": 1}, {"k": 2}, {"k": 3}]


class TestEndToEndEquivalence:
    """A full service query is row-identical batched vs serial.

    The serial reference turns the gateway's micro-batching off, so every
    model call executes alone at its serial price.
    """

    def test_flagship_rows_match(self, vec_corpus):
        def run(vectorized):
            service = KathDBService(KathDBConfig(
                seed=7, monitor_enabled=False, explore_variants=False,
                enable_model_cache=False, enable_request_coalescing=False,
                enable_micro_batching=vectorized))
            service.load_corpus(vec_corpus)
            response = service.session().query(QueryRequest(
                nl_query="Rank every film by how exciting its plot is.",
                user=ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION})))
            assert response.ok, response.error
            rows = [dict(r) for r in response.result.final_table]
            tokens = service.total_tokens() + response.total_tokens
            record = next(r for r in response.result.records
                          if r.operator_name == "gen_excitement_score")
            service.shutdown()
            return rows, tokens, record

        serial_rows, serial_tokens, serial_record = run(False)
        vector_rows, vector_tokens, vector_record = run(True)
        assert serial_rows == vector_rows
        # Sub-linear batch billing (population + scoring query) saves at
        # least a third of the serial bill.
        assert vector_tokens * 1.5 <= serial_tokens
        # The vectorized run surfaces its batched invocations per operator.
        assert vector_record.batch_calls >= 1
        assert sum(vector_record.batch_sizes) == vector_record.rows_in
        assert serial_record.batch_calls == 0
