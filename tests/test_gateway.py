"""Tests for the model gateway (shared cache, coalescing, batching, admission).

Covers the tentpole contract: identical requests answered once service-wide,
sessions charged only for their own misses, a vector's misses executed as one
batched invocation and a lone miss as the serial call, the opt-in semantic
near-match tier with its exact-execution fallback guard, admission control,
and row-identity between gateway-on and gateway-off service runs.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    KathDBConfig,
    KathDBService,
    QueryRequest,
    ScriptedUser,
    SilentUser,
    build_movie_corpus,
)
from repro.data.workloads import FLAGSHIP_CLARIFICATION
from repro.errors import SessionQuotaExceededError
from repro.gateway import (
    GatewayBatchClient,
    GatewayConfig,
    ModelGateway,
    request_key,
)
from repro.gateway.proxy import GatewayModelProxy
from repro.models.cost import CostMeter
from repro.models.embeddings import EmbeddingModel
from repro.models.lexicon import default_lexicon

BORING_QUERY = "Which films have a boring poster?"
SCORING_QUERY = "Rank every film by how exciting its plot is."


class CountingModel:
    """An instrumented stand-in model: counts executions, charges tokens."""

    name = "stub:counting"

    def __init__(self, meter=None, latency_s=0.0, tokens=15):
        self.cost_meter = meter
        self.latency_s = latency_s
        self.tokens = tokens
        self.calls = 0
        self._lock = threading.Lock()

    def ask(self, prompt, purpose="ask"):
        with self._lock:
            self.calls += 1
        if self.latency_s:
            time.sleep(self.latency_s)
        if self.cost_meter is not None:
            self.cost_meter.record(self.name, purpose,
                                   prompt_tokens=self.tokens, completion_tokens=0)
        return {"echo": prompt}


def service_config(**overrides) -> KathDBConfig:
    defaults = dict(seed=7, monitor_enabled=False, explore_variants=False)
    defaults.update(overrides)
    return KathDBConfig(**defaults)


def fresh_service(corpus, **overrides) -> KathDBService:
    svc = KathDBService(service_config(**overrides))
    svc.load_corpus(corpus)
    return svc


def rows_of(response):
    assert response.ok, response.error
    return [dict(row) for row in response.result.final_table]


def content(response):
    """Rows modulo ``lid``: lineage ids depend on which lineage store a
    session writes (a service session's scoped overlay, the facade's shared
    store, a second corpus load), the model-derived values do not."""
    return [{k: v for k, v in row.items() if k != "lid"}
            for row in rows_of(response)]


class TestFingerprint:
    def test_equal_requests_share_a_key(self):
        a = request_key("llm:x", "ask", ("hello", ["a", "b"]), {"k": 1})
        b = request_key("llm:x", "ask", ("hello", ("a", "b")), {"k": 1})
        assert a == b

    def test_distinct_requests_diverge(self):
        base = request_key("llm:x", "ask", ("hello",), {})
        assert request_key("llm:x", "ask", ("world",), {}) != base
        assert request_key("llm:y", "ask", ("hello",), {}) != base
        assert request_key("llm:x", "tell", ("hello",), {}) != base
        assert request_key("llm:x", "ask", ("hello",), {}, "lex2") != base

    def test_images_fingerprint_by_uri(self):
        from repro.data.images import SyntheticImage
        img_a = SyntheticImage(uri="posters/1.png")
        img_b = SyntheticImage(uri="posters/1.png")
        img_c = SyntheticImage(uri="posters/2.png")
        assert request_key("vlm", "see", (img_a,), {}) == \
            request_key("vlm", "see", (img_b,), {})
        assert request_key("vlm", "see", (img_a,), {}) != \
            request_key("vlm", "see", (img_c,), {})


class TestExactCacheTier:
    def test_hit_skips_execution_and_charges_nothing(self):
        gateway = ModelGateway(GatewayConfig())
        meter_a, meter_b = CostMeter(), CostMeter()
        model_a = CountingModel(meter_a)
        model_b = CountingModel(meter_b)
        a = gateway.client("a")
        b = gateway.client("b")

        first = a.invoke(model_a, "ask", ("hi",), {})
        second = b.invoke(model_b, "ask", ("hi",), {})
        assert first == second == {"echo": "hi"}
        # One execution total, on session a's model; b paid nothing.
        assert model_a.calls == 1 and model_b.calls == 0
        assert meter_a.total_tokens == 15 and meter_b.total_tokens == 0
        assert b.counters.hits == 1 and b.counters.tokens_saved == 15
        assert a.counters.misses == 1 and a.counters.tokens_charged == 15

    def test_hits_return_private_copies(self):
        gateway = ModelGateway(GatewayConfig())
        client = gateway.client("s")
        model = CountingModel()
        client.invoke(model, "ask", ("hi",), {})
        stolen = client.invoke(model, "ask", ("hi",), {})
        stolen["echo"] = "poisoned"
        assert client.invoke(model, "ask", ("hi",), {})["echo"] == "hi"

    def test_lru_eviction_by_capacity(self):
        gateway = ModelGateway(GatewayConfig(cache_entries=2))
        client = gateway.client("s")
        model = CountingModel()
        for prompt in ("a", "b", "c"):
            client.invoke(model, "ask", (prompt,), {})
        assert gateway.cache.stats.evictions == 1
        client.invoke(model, "ask", ("a",), {})   # evicted -> re-executes
        assert model.calls == 4

    def test_token_budget_bounds_cached_mass(self):
        gateway = ModelGateway(GatewayConfig(cache_token_budget=40))
        client = gateway.client("s")
        model = CountingModel(CostMeter())  # 15 tokens per call
        for prompt in ("a", "b", "c", "d"):
            client.invoke(model, "ask", (prompt,), {})
        assert gateway.cache.stats.cached_tokens <= 40
        assert gateway.cache.stats.evictions >= 1

    def test_disabled_cache_always_executes(self):
        gateway = ModelGateway(GatewayConfig(enable_cache=False,
                                             enable_coalescing=False))
        client = gateway.client("s")
        model = CountingModel()
        client.invoke(model, "ask", ("hi",), {})
        client.invoke(model, "ask", ("hi",), {})
        assert model.calls == 2

    def test_purpose_tag_does_not_partition_results(self):
        # purpose= only labels the cost record (it never reaches the model),
        # so two operators issuing the identical call under different node
        # names must share one execution.
        gateway = ModelGateway(GatewayConfig())
        client = gateway.client("s")
        model = CountingModel(CostMeter())
        first = client.invoke(model, "ask", ("hi",), {"purpose": "node_a"})
        second = client.invoke(model, "ask", ("hi",), {"purpose": "node_b"})
        assert first == second and model.calls == 1
        assert client.counters.hits == 1

    def test_lexicon_divergence_splits_keys(self):
        gateway = ModelGateway(GatewayConfig())
        client = gateway.client("s")
        meter = CostMeter()
        model = EmbeddingModel(lexicon=default_lexicon(), cost_meter=meter)
        proxy = GatewayModelProxy(model, client)
        proxy.embed_word("gun")
        assert client.counters.misses == 1
        proxy.embed_word("gun")
        assert client.counters.hits == 1
        # A clarification extends the lexicon: cached vectors computed under
        # the old lexicon must not be served.
        model.lexicon.add_terms("excitement", ["parkour"])
        proxy.embed_word("gun")
        assert client.counters.misses == 2


class TestCoalescing:
    def test_concurrent_identical_calls_execute_once(self):
        # The acceptance-criterion shape, at gateway level: two sessions, one
        # instrumented model execution, result shared, only the leader pays.
        gateway = ModelGateway(GatewayConfig(enable_cache=False))
        meters = {"a": CostMeter(), "b": CostMeter()}
        models = {sid: CountingModel(meters[sid], latency_s=0.15)
                  for sid in meters}
        barrier = threading.Barrier(2)

        def call(sid):
            barrier.wait()
            return gateway.client(sid).invoke(models[sid], "ask", ("same",), {})

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(call, ("a", "b")))

        assert results[0] == results[1] == {"echo": "same"}
        assert models["a"].calls + models["b"].calls == 1
        assert sorted(m.total_tokens for m in meters.values()) == [0, 15]
        assert gateway.coalescer.stats.coalesced == 1
        assert gateway.coalescer.stats.tokens_saved == 15

    def test_followers_never_see_the_leaders_live_object(self):
        # The leader's caller owns (and may mutate) the returned object, so
        # the slot must publish a private copy whenever followers wait.
        from repro.gateway import RequestCoalescer
        coalescer = RequestCoalescer()
        _, slot = coalescer.begin(("k", 1))
        assert coalescer.begin(("k", 1))[0] is False   # one waiting follower
        original = {"nested": [1, 2]}
        coalescer.complete(slot, original, 5)
        shared, cost = coalescer.wait(slot)
        assert cost == 5 and shared == original
        assert shared is not original
        assert shared["nested"] is not original["nested"]

    def test_leaderless_completion_skips_the_copy(self):
        from repro.gateway import RequestCoalescer
        coalescer = RequestCoalescer()
        _, slot = coalescer.begin(("k", 2))
        original = {"solo": True}
        coalescer.complete(slot, original, 5)
        assert slot.result is original   # no follower -> no copy needed

    def test_leader_failure_propagates_to_followers(self):
        gateway = ModelGateway(GatewayConfig(enable_cache=False))

        class FailingModel:
            name = "stub:failing"
            cost_meter = None

            def ask(self, prompt):
                time.sleep(0.1)
                raise RuntimeError("backend down")

        model = FailingModel()
        barrier = threading.Barrier(2)

        def call(sid):
            barrier.wait()
            return gateway.client(sid).invoke(model, "ask", ("x",), {})

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(call, sid) for sid in ("a", "b")]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend down"):
                    future.result()
        assert gateway.coalescer.inflight_count() == 0

    def test_concurrent_identical_queries_from_two_sessions(self, corpus):
        # The acceptance criterion end to end: two *service sessions* run the
        # same query concurrently; the combined underlying model executions
        # (every execution records exactly one cost-meter call; cache hits
        # and coalesced followers record none) must equal a solo run's.
        # Micro-batching is pinned off: a batched invocation collapses its
        # members into one ledger record, which would skew the call *count*
        # this test uses as its execution proxy.
        solo_svc = fresh_service(corpus, simulate_model_latency=0.5,
                                 enable_micro_batching=False)
        solo = solo_svc.session(name="solo")
        assert solo.query(BORING_QUERY).ok
        solo_calls = len(solo.models.cost_meter.calls)
        assert solo_calls > 0

        svc = fresh_service(corpus, simulate_model_latency=0.5,
                            enable_micro_batching=False)
        a, b = svc.session(name="a"), svc.session(name="b")
        barrier = threading.Barrier(2)

        def run(session):
            barrier.wait()
            return session.query(BORING_QUERY)

        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = list(pool.map(run, (a, b)))
        assert all(r.ok for r in responses)
        assert rows_of(responses[0]) == rows_of(responses[1])

        combined = len(a.models.cost_meter.calls) + len(b.models.cost_meter.calls)
        assert combined == solo_calls
        stats = svc.gateway.flat_stats()
        assert stats["cache_hits"] + stats["coalesced"] > 0


class TestMicroBatching:
    def test_batched_members_pay_sublinear_fair_shares(self):
        # Two distinct NER calls in one session's vector run as one batch:
        # the session's meter gets a single BatchedModelCall whose price is
        # below the serial price (shared setup paid once).
        from repro.models.cost import BatchedModelCall
        from repro.models.ner import EntityExtractor

        gateway = ModelGateway(GatewayConfig(enable_cache=False,
                                             enable_coalescing=False))
        meter = CostMeter()
        model = EntityExtractor(cost_meter=meter, lexicon=default_lexicon())
        texts = ["David Merrill met a gun fight in the city.",
                 "Ruth Merrill enjoyed a calm garden walk."]
        with CostMeter.capture() as records:
            for text in texts:
                model.extract(text)
        serial_cost = sum(r.total_tokens for r in records)

        gateway.client("s").invoke_many(model, "extract",
                                        [((text,), {}) for text in texts])

        [batched] = meter.calls
        assert isinstance(batched, BatchedModelCall)
        assert batched.members == batched.batch_size == 2
        assert batched.serial_tokens == serial_cost
        assert batched.total_tokens < serial_cost
        saved = serial_cost - batched.total_tokens
        assert gateway.batcher.stats.token_savings == saved
        assert gateway.flat_stats()["batch_token_savings"] == saved
        assert gateway.client("s").counters.batch_tokens_saved == saved
        kinds = gateway.batcher.stats.by_kind
        assert any(kind.endswith(".extract") for kind in kinds)
        assert max(k.largest_batch for k in kinds.values()) == 2

    def test_one_executor_records_one_share_per_meter(self):
        # Each session's vector runs through the one executor and lands as
        # one record on that session's own meter, covering all its members.
        from repro.models.cost import BatchedModelCall
        from repro.models.ner import EntityExtractor

        gateway = ModelGateway(GatewayConfig(enable_cache=False,
                                             enable_coalescing=False))
        lexicon = default_lexicon()
        meters = {sid: CostMeter() for sid in ("v", "w")}
        models = {sid: EntityExtractor(cost_meter=meters[sid], lexicon=lexicon)
                  for sid in meters}
        texts = ["David Merrill met a gun fight in the city.",
                 "Ruth Merrill enjoyed a calm garden walk.",
                 "A storm hit the harbor at night.",
                 "Two friends argued over dinner."]
        for sid, vector in (("v", texts), ("w", texts[:2])):
            GatewayBatchClient(gateway.client(sid)).invoke(
                models[sid], "extract", [((text,), {}) for text in vector])
            [record] = meters[sid].calls
            assert isinstance(record, BatchedModelCall)
            assert record.members == record.batch_size == len(vector)
        batching = gateway.stats()["batching"]
        assert batching["batches"] == 2
        assert batching["batched_calls"] == 6
        assert batching["largest_batch"] == 4

    def test_one_call_miss_is_a_serial_call_not_a_batch(self):
        # A lone miss on an embeddings method and one on an LLM method each
        # run as the plain serial call: billed exactly the serial price as a
        # ModelCall, resolved by the time submit() returns, and not counted
        # as a batch.  Only a vector of two or more is a batch.
        from repro.models.base import ModelSuite
        from repro.models.cost import ModelCall

        gateway = ModelGateway(GatewayConfig())
        routed = ModelSuite.create(seed=7).fork().routed(gateway, "s")
        reference = ModelSuite.create(seed=7)
        resolved = []
        submit = gateway.batcher.submit

        def spy(kind, member):
            future = submit(kind, member)
            resolved.append(future.done())
            return future

        gateway.batcher.submit = spy
        for kind, method, args in (
                ("embeddings", "match_fraction", (["gun"], ["fight"])),
                ("llm", "generate_keywords", ("exciting",))):
            assert (getattr(getattr(routed, kind), method)(*args)
                    == getattr(getattr(reference, kind), method)(*args))
        served = routed.cost_meter.calls
        assert served == reference.cost_meter.calls
        assert {call.purpose for call in served} == {"match_fraction",
                                                     "keyword_generation"}
        assert all(type(call) is ModelCall for call in served)
        assert resolved == [True, True]
        assert gateway.stats()["batching"]["batches"] == 0

        routed.call_many("embeddings", "embed_text",
                         [((f"a calm garden walk {i}",), {}) for i in range(4)])
        batching = gateway.stats()["batching"]
        assert batching["batches"] == 1
        assert batching["largest_batch"] == 4

    def test_member_failure_only_fails_that_member(self):
        gateway = ModelGateway(GatewayConfig(enable_coalescing=False))

        class PickyModel:
            name = "stub:picky"
            cost_meter = None
            calls = 0

            def ask(self, prompt):
                self.calls += 1
                if prompt == "bad":
                    raise ValueError("no thanks")
                return {"echo": prompt}

        model = PickyModel()
        client = GatewayBatchClient(gateway.client("s"))
        calls = [((prompt,), {}) for prompt in ("ok1", "bad", "ok2")]
        with pytest.raises(ValueError, match="no thanks"):
            client.invoke(model, "ask", calls)
        assert model.calls == 3
        # The healthy members executed and were published: re-asking them
        # is answered from the cache without running the model again.
        assert client.invoke(model, "ask", [calls[0], calls[2]]) == [
            {"echo": "ok1"}, {"echo": "ok2"}]
        assert model.calls == 3


class TestSemanticTier:
    def _proxy(self, gateway, session="s"):
        meter = CostMeter()
        model = EmbeddingModel(lexicon=default_lexicon(), cost_meter=meter)
        return GatewayModelProxy(model, gateway.client(session)), meter

    def test_raw_gateway_layer_defaults_off_and_executes_exactly(self):
        # GatewayConfig (the explicit, low-level layer) keeps the tier
        # opt-in; the *service* default is on via KathDBConfig, whose
        # measured-accuracy graduation is tests/test_semantic_ann.py's
        # contract (TestAccuracyAudit).
        gateway = ModelGateway(GatewayConfig())
        proxy, _ = self._proxy(gateway)
        proxy.match_fraction(["gun", "murder"], ["fight"])
        proxy.match_fraction(["murder", "gun"], ["fight"])   # different exact key
        assert gateway.semantic.stats.near_hits == 0
        assert gateway.cache.stats.misses == 2

    def test_near_match_serves_equivalent_requests(self):
        gateway = ModelGateway(GatewayConfig(enable_semantic=True,
                                             semantic_threshold=0.999))
        proxy, meter = self._proxy(gateway)
        exact = proxy.match_fraction(["gun", "murder"], ["fight"])
        spent = meter.total_tokens
        # Same term sets, different order: exact key differs, signature is
        # identical -> the semantic tier answers without executing.
        near = proxy.match_fraction(["murder", "gun"], ["fight"])
        assert near == exact
        assert meter.total_tokens == spent
        assert gateway.semantic.stats.near_hits == 1

    def test_signatures_are_structural_not_space_joined(self):
        from repro.gateway.semantic import term_signature
        assert term_signature(["a b"], ["x"]) != term_signature(["a", "b"], ["x"])
        assert term_signature(["a | b"], ["x"]) != term_signature(["a"], ["b", "x"])
        # Order-insensitive, duplicates preserved.
        assert term_signature(["b", "a"], ["x"]) == term_signature(["a", "b"], ["x"])
        assert term_signature(["a", "a"], ["x"]) != term_signature(["a"], ["x"])

    def test_different_threshold_kwarg_never_shares_answers(self):
        # match_fraction's threshold= changes the answer; requests with the
        # same terms but different thresholds must partition the tier.
        gateway = ModelGateway(GatewayConfig(enable_semantic=True,
                                             semantic_threshold=0.999))
        proxy, meter = self._proxy(gateway)
        # gun~weapon similarity is ~0.86: a match at 0.1, not at 0.99.
        loose = proxy.match_fraction(["gun"], ["gun", "weapon"], threshold=0.1)
        spent = meter.total_tokens
        strict = proxy.match_fraction(["gun"], ["gun", "weapon"], threshold=0.99)
        assert meter.total_tokens > spent        # executed, not served
        assert loose == 1.0 and strict == 0.5

    def test_below_threshold_falls_back_to_exact_execution(self):
        gateway = ModelGateway(GatewayConfig(enable_semantic=True,
                                             semantic_threshold=0.999))
        proxy, meter = self._proxy(gateway)
        proxy.match_fraction(["gun", "murder"], ["fight"])
        spent = meter.total_tokens
        result = proxy.match_fraction(["tea", "garden"], ["fight"])
        # Dissimilar signature: the guard forced a real execution.
        assert gateway.semantic.stats.fallbacks >= 1
        assert meter.total_tokens > spent
        raw = EmbeddingModel(lexicon=default_lexicon())
        assert result == raw.match_fraction(["tea", "garden"], ["fight"])

    def test_capacity_bounds_the_whole_tier_not_each_group(self):
        # Groups are open-ended (every lexicon divergence mints new ones);
        # the configured capacity must bound total stored entries globally.
        from repro.gateway import SemanticNearCache
        import numpy as np
        cache = SemanticNearCache(threshold=0.999, capacity=5)
        for group_index in range(4):
            for entry_index in range(3):
                cache.put((f"group{group_index}",),
                          np.ones(4), f"sig{group_index}-{entry_index}",
                          result=entry_index)
        assert cache.stats.entries <= 5
        assert sum(len(v) for v in cache._groups.values()) <= 5


class TestAdmissionControl:
    def test_session_quota_is_enforced(self):
        gateway = ModelGateway(GatewayConfig(session_token_quota=20))
        client = gateway.client("greedy")
        model = CountingModel(CostMeter())  # 15 tokens per execution
        client.invoke(model, "ask", ("one",), {})
        client.invoke(model, "ask", ("two",), {})  # 30 > 20 after this charge
        with pytest.raises(SessionQuotaExceededError):
            client.invoke(model, "ask", ("three",), {})
        # The rejection happened *before* joining the in-flight table: an
        # under-quota session issuing the same request next must lead its
        # own execution, not inherit the rejected session's error.
        assert gateway.coalescer.inflight_count() == 0
        other = gateway.client("frugal")
        assert other.invoke(model, "ask", ("three",), {}) == {"echo": "three"}
        # Cache hits stay free: they cost the service nothing.
        assert client.invoke(model, "ask", ("one",), {}) == {"echo": "one"}
        assert gateway.admission.rejections == 1

    def test_quota_surfaces_as_captured_service_error(self, corpus):
        svc = fresh_service(corpus, session_token_quota=1)
        response = svc.query(BORING_QUERY)
        assert not response.ok
        assert "SessionQuotaExceededError" in response.error
        # The failure response still carries the quota position (satellite:
        # callers can see the exhaustion, not just the rejection).
        assert response.quota_exhausted
        assert response.tokens_remaining == 0

    def test_quota_state_lets_callers_back_off_before_rejection(self, corpus):
        # The ROADMAP satellite: quota state on Session/QueryResponse so a
        # caller can stop *before* SessionQuotaExceededError fires.
        svc = fresh_service(corpus, session_token_quota=1_000_000)
        session = svc.session(name="careful")
        assert session.tokens_used == 0
        assert session.tokens_remaining == 1_000_000
        assert not session.quota_exhausted

        response = session.query(BORING_QUERY)
        assert response.ok
        assert response.tokens_used > 0
        assert response.tokens_used == session.tokens_used
        assert response.tokens_remaining == 1_000_000 - response.tokens_used
        assert not response.quota_exhausted
        state = session.quota_state()
        assert state["tokens_used"] == response.tokens_used

        # Shrink the enforced quota under the session's spend: the *state*
        # flips before any further call is attempted — that is the backoff
        # signal (quota_state reads the admission controller's copy, the
        # same one precheck() refuses against).
        svc.gateway.admission.session_token_quota = response.tokens_used
        assert session.quota_exhausted
        assert session.tokens_remaining == 0

    def test_quota_state_without_a_quota_or_gateway(self, corpus):
        svc = fresh_service(corpus)   # no quota configured
        session = svc.session(name="free")
        assert session.query(BORING_QUERY).ok
        assert session.tokens_remaining is None
        assert not session.quota_exhausted
        from repro import KathDB
        db = KathDB(service_config())
        db.load_corpus(corpus)
        legacy = db.default_session
        assert legacy.tokens_remaining is None   # pass-through: no quota
        assert not legacy.quota_exhausted

    def test_internal_namespace_is_not_caller_reachable(self):
        # The populator's quota-exempt client lives under the reserved "#"
        # prefix; a caller session named "loader" gets its own plain client,
        # and reserved ids are rejected outright.
        gateway = ModelGateway(GatewayConfig(session_token_quota=10))
        internal = gateway.internal_client("loader")
        assert internal.quota_exempt
        impostor = gateway.client("loader")
        assert impostor is not internal
        assert not impostor.quota_exempt
        with pytest.raises(ValueError, match="reserved"):
            gateway.client("#loader")

    def test_client_and_spend_registries_are_bounded(self):
        gateway = ModelGateway(GatewayConfig(max_tracked_sessions=8))
        gateway.admission.MAX_TRACKED_SESSIONS = 8
        model = CountingModel(CostMeter())
        for index in range(20):
            gateway.client(f"s{index}").invoke(model, "ask", (f"p{index}",), {})
        assert len(gateway._clients) <= 8
        assert len(gateway.admission._spent) <= 8

    def test_exhausted_sessions_survive_ledger_eviction(self):
        # Evicting an exhausted session's ledger entry would hand it a fresh
        # quota; churn from throwaway sessions must never un-block it.
        gateway = ModelGateway(GatewayConfig(session_token_quota=20))
        gateway.admission.MAX_TRACKED_SESSIONS = 4
        blocked = gateway.client("blocked")
        model = CountingModel(CostMeter())
        blocked.invoke(model, "ask", ("a",), {})
        blocked.invoke(model, "ask", ("b",), {})   # 30 tokens: over quota
        for index in range(10):                    # churn under-quota sessions
            gateway.client(f"churn{index}").invoke(
                model, "ask", (f"p{index}",), {})
        assert gateway.admission.spent("blocked") >= 20
        with pytest.raises(SessionQuotaExceededError):
            blocked.invoke(model, "ask", ("c",), {})

    def test_ledger_eviction_drops_lowest_spenders_first(self):
        # A nearly-exhausted long-lived session must keep its ledger under
        # churn from low-spend throwaway sessions, or idling would silently
        # refresh its quota.
        from repro.gateway import AdmissionController
        admission = AdmissionController(session_token_quota=100)
        admission.MAX_TRACKED_SESSIONS = 4
        admission.charge("nearly", 90)
        for index in range(10):
            admission.charge(f"throwaway{index}", 15)
        assert admission.spent("nearly") == 90
        assert len(admission._spent) <= 4

    def test_concurrency_limiter_serializes_executions(self):
        gateway = ModelGateway(GatewayConfig(enable_cache=False,
                                             enable_coalescing=False,
                                             enable_batching=False,
                                             max_concurrency=1))
        model = CountingModel(latency_s=0.05)
        barrier = threading.Barrier(3)

        def call(index):
            barrier.wait()
            return gateway.client(f"s{index}").invoke(
                model, "ask", (f"p{index}",), {})

        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(call, range(3)))
        assert gateway.admission.peak_concurrency == 1
        assert gateway.admission.waits >= 1


class TestServiceIntegration:
    def test_gateway_on_off_rows_identical(self, corpus):
        on = fresh_service(corpus)
        # "Off" is the legacy facade's default session: a pass-through
        # gateway with no tier that could answer a call.
        from repro import KathDB
        off = KathDB(service_config())
        off.load_corpus(corpus)
        requests = [QueryRequest(nl_query=BORING_QUERY, user=SilentUser())
                    for _ in range(4)]
        with_gateway = on.query_batch(requests, jobs=4)
        without = [off.default_session.query(
            QueryRequest(nl_query=BORING_QUERY, user=SilentUser()))
            for _ in range(4)]
        for a, b in zip(with_gateway, without):
            assert content(a) == content(b)
        saved = sum(r.gateway_stats["tokens_saved"] for r in with_gateway)
        assert saved > 0
        assert all(r.gateway_stats["hits"] == 0 and r.gateway_stats["tokens_saved"] == 0
                   for r in without)

    def test_repeated_query_tokens_collapse(self, corpus):
        svc = fresh_service(corpus)
        first = svc.query(BORING_QUERY)
        second = svc.query(BORING_QUERY)
        assert first.total_tokens > 0
        # Prepared plan + gateway cache: the rerun costs (almost) nothing.
        assert second.total_tokens < first.total_tokens / 2
        assert second.gateway_stats["hits"] > 0

    def test_micro_batching_cuts_tokens_with_identical_rows(self):
        # Cache, coalescing and the semantic tier off in both arms: every
        # saved token comes from batched execution's shared setup.
        corpus = build_movie_corpus(size=12, seed=7)

        def run(batching):
            svc = fresh_service(corpus, enable_model_cache=False,
                                enable_request_coalescing=False,
                                enable_semantic_cache=False,
                                enable_micro_batching=batching)
            responses = [svc.query(QueryRequest(
                nl_query=SCORING_QUERY,
                user=ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION})))
                for _ in range(4)]
            savings = svc.gateway_stats()["batch_token_savings"]
            svc.shutdown()
            return ([rows_of(r) for r in responses],
                    sum(r.total_tokens for r in responses), savings)

        serial_rows, serial_tokens, _ = run(False)
        batched_rows, batched_tokens, savings = run(True)
        assert batched_rows == serial_rows
        assert batched_tokens < serial_tokens
        assert savings > 0

    def test_per_operator_gateway_observability(self, corpus):
        svc = fresh_service(corpus)
        svc.query(BORING_QUERY)
        rerun = svc.query(BORING_QUERY)
        records = rerun.result.records
        assert sum(r.gateway_hits for r in records) > 0
        assert sum(r.gateway_tokens_saved for r in records) > 0

    def test_no_model_cache_flag_pays_every_time(self, corpus):
        svc = fresh_service(corpus, enable_model_cache=False)
        first = svc.query(BORING_QUERY)
        second = svc.query(BORING_QUERY)
        assert second.prepared_hit                   # plans still cached
        assert second.execute_tokens == first.execute_tokens  # results are not
        assert svc.gateway_stats()["cache_hits"] == 0

    def test_describe_includes_gateway(self, corpus):
        svc = fresh_service(corpus)
        assert "model gateway:" in svc.describe()
        assert "tokens_saved" in svc.describe()

    def test_corpus_reload_clears_gateway_results(self, corpus):
        # Poster URIs collide across corpora (both corpora contain e.g.
        # file://posters/clean_and_sober.png with different pixels), so a
        # reload must drop cached model results or queries against the new
        # corpus would silently read the old corpus's scene graphs.
        from repro import build_movie_corpus
        svc = fresh_service(corpus)
        svc.query(BORING_QUERY)
        assert svc.gateway_stats()["cache_entries"] > 0
        other = build_movie_corpus(size=8, seed=3)
        svc.load_corpus(other)

        # Compare modulo lid: lineage ids legitimately advance on a second
        # load into the same service; the *model-derived* values must match.
        # The reference answers over a direct model path: the legacy
        # facade's default session, which no gateway cache can feed.
        from repro import KathDB
        reference = KathDB(service_config())
        reference.load_corpus(other)
        assert content(svc.query(BORING_QUERY)) == content(
            reference.default_session.query(BORING_QUERY))

    def test_per_session_windowed_stats(self, corpus):
        # The ROADMAP satellite: windowed gateway stats scoped to one
        # session's own events, for multi-tenant quota tuning.
        svc = fresh_service(corpus)
        busy = svc.session(name="busy")
        idle = svc.session(name="idle")
        assert busy.query(BORING_QUERY).ok

        scoped = busy.gateway_stats(window_s=60.0)
        assert scoped["session_id"] == "busy"
        assert scoped["windowed"]["session_id"] == "busy"
        assert scoped["windowed"]["requests"] > 0
        assert scoped["windowed"]["tokens_charged"] > 0
        # The idle tenant's window is empty even though the service-wide
        # window (and the loader's population traffic) is not.
        assert idle.gateway_stats(window_s=60.0)["windowed"]["requests"] == 0
        assert svc.gateway.windowed_stats(60.0)["requests"] > \
            scoped["windowed"]["requests"] - 1

        # The service surface answers for any tracked session id, and the
        # cumulative block matches the session's own counters.
        via_service = svc.gateway_stats(window_s=60.0, session_id="busy")
        assert via_service["windowed"]["requests"] == \
            scoped["windowed"]["requests"]
        assert via_service["misses"] == scoped["misses"]
        # Unknown ids answer empty rather than minting a client.
        assert "misses" not in svc.gateway_stats(session_id="nobody")
        assert svc.gateway.session_counters("nobody") is None

    def test_legacy_facade_gateway_stats_show_no_tier_hits(self, corpus):
        from repro import KathDB
        db = KathDB(service_config())
        db.load_corpus(corpus)
        db.query(BORING_QUERY, user=SilentUser())
        db.query(BORING_QUERY, user=SilentUser())
        stats = db.default_session.gateway_stats(window_s=60.0)
        assert stats["session_id"] == "default"
        assert stats["misses"] > 0 and stats["windowed"]["misses"] > 0
        assert stats["hits"] == stats["semantic_hits"] == stats["coalesced"] == 0
        assert stats["tokens_saved"] == 0

    def test_legacy_facade_rides_a_pass_through_gateway(self, corpus):
        from repro import KathDB
        db = KathDB(service_config())
        db.load_corpus(corpus)
        client = db.default_session.models.gateway_client
        assert client.gateway is not db.service.gateway
        assert db.models.cost_meter is db.service.models.cost_meter
        service_stats = db.service.gateway_stats()
        result_a = db.query(BORING_QUERY, user=SilentUser())
        tokens_a = result_a.total_tokens
        result_b = db.query(BORING_QUERY, user=SilentUser())
        # Historical accounting: the facade re-pays the full cost every time,
        # and none of its traffic shows in the service's gateway stats.
        assert result_b.total_tokens == tokens_a > 0
        assert db.service.gateway_stats() == service_stats
        assert client.counters.tokens_charged == client.spent() > 0
