"""Tests for the semantic tier's LSH/ANN graduation.

Covers the tentpole contract: the multi-probe LSH index agrees with the
linear scan on accept/reject decisions across thresholds, multi-probe
recovers near-boundary vectors a single bucket probe would miss, every
invalidation path (eviction, clear, corpus reload) drops index entries in
lockstep with cache entries, a vectorized ``call_many("embeddings",
"match_fraction", ...)`` composes with the tier instead of bypassing it, the service's threshold
serves no false accepts against exact execution, and the config/CLI knobs
reach the index.
"""

import numpy as np
import pytest

from repro import KathDBConfig, KathDBService, build_movie_corpus
from repro.core.config import SEMANTIC_SIMILARITY_THRESHOLD
from repro.core.config import KathDBConfig as CoreConfig
from repro.errors import KathDBError
from repro.gateway import GatewayConfig, LSHIndex, ModelGateway, SemanticNearCache
from repro.gateway.proxy import GatewayModelProxy
from repro.gateway.semantic import term_signature
from repro.models.base import ModelSuite
from repro.models.cost import CostMeter
from repro.models.embeddings import EmbeddingModel, cosine_similarity
from repro.models.lexicon import default_lexicon
from repro.utils.text import content_words

GROUP = ("embedding:lexicon-64", "match_fraction", "", ())

KEYWORDS = ("gun", "explosion", "chase", "fight", "battle", "war", "murder")

#: Candidate term lists shaped like the scoring workload: overlapping,
#: near-duplicated, and disjoint families.
CANDIDATE_LISTS = [
    ("war", "battle", "soldier", "tank"),
    ("war", "battle", "soldier", "tank", "trench"),
    ("War", "Battle", "Soldier", "Tank"),          # case variant of [0]
    ("picnic", "beach", "sunset"),
    ("picnic", "beach", "sunset", "kite"),
    ("ghost", "scream", "haunted"),
    ("tank", "soldier", "battle", "war"),          # order variant of [0]
    ("love", "wedding", "kiss"),
]


def signature_stream(cache: SemanticNearCache):
    """(signature, vector) pairs for the candidate lists above."""
    stream = []
    for candidates in CANDIDATE_LISTS:
        signature = term_signature(KEYWORDS, candidates)
        stream.append((signature, cache.embed_signature(signature)))
    return stream


class TestLSHIndex:
    def test_identical_vectors_share_a_bucket(self):
        index = LSHIndex(planes=16, probes=4)
        vector = np.arange(24, dtype=float)
        assert index.key_of(vector) == index.key_of(vector.copy())

    def test_probe_sequence_is_bounded_and_distinct(self):
        index = LSHIndex(planes=12, probes=6)
        vector = np.linspace(-1.0, 1.0, 24)
        buckets = list(index.probe_sequence(vector))
        assert len(buckets) == 7            # home + probes
        assert len(set(buckets)) == 7       # no bucket probed twice
        assert buckets[0] == index.key_of(vector)

    def test_probe_budget_beyond_planes_uses_pair_flips(self):
        index = LSHIndex(planes=4, probes=8)
        vector = np.linspace(-1.0, 1.0, 16)
        buckets = list(index.probe_sequence(vector))
        # home + 4 single flips + 4 pair flips, all distinct.
        assert len(buckets) == 9
        assert len(set(buckets)) == 9

    def test_add_remove_keeps_size_and_candidates_in_sync(self):
        index = LSHIndex(planes=8, probes=2)
        vectors = [np.arange(16, dtype=float) + i for i in range(3)]
        entries = [object() for _ in vectors]
        for vector, entry in zip(vectors, entries):
            index.add("g", vector, entry)
        assert len(index) == 3
        assert index.remove("g", vectors[1], entries[1])
        assert len(index) == 2
        assert entries[1] not in index.candidates("g", vectors[1])
        # Removing twice is a no-op, not an error.
        assert not index.remove("g", vectors[1], entries[1])

    def test_groups_never_share_candidates(self):
        index = LSHIndex(planes=8, probes=8)
        vector = np.ones(16)
        index.add("a", vector, "entry-a")
        assert index.candidates("b", vector) == []
        assert "entry-a" in index.candidates("a", vector)

    def test_empty_index_rebuilds_planes_for_new_geometry(self):
        index = LSHIndex(planes=8, probes=2, dimensions=64)
        index.add("g", np.ones(4), "e")     # pre-sized, but empty: rebuild
        assert len(index) == 1
        with pytest.raises(ValueError, match="dimensionality"):
            index.key_of(np.ones(9))        # non-empty now: hard error

    def test_occupancy_counters(self):
        index = LSHIndex(planes=8, probes=2)
        for i in range(5):
            index.add("g", np.arange(16, dtype=float) * (i + 1), i)
        occupancy = index.occupancy()
        assert occupancy["entries"] == 5
        assert occupancy["groups"] == 1
        assert 1 <= occupancy["buckets"] <= 5
        assert occupancy["max_bucket"] >= 1


class TestAnnLinearEquivalence:
    @pytest.mark.parametrize("threshold", [0.97, 0.995, 0.999])
    def test_same_accept_reject_decisions_across_thresholds(self, threshold):
        # In the tier's operating regime (tight thresholds: near-matches
        # are near-identical vectors), multi-probe recall is complete and
        # the two lookup structures make byte-identical decisions.
        linear = SemanticNearCache(threshold=threshold, mode="linear")
        ann = SemanticNearCache(threshold=threshold, mode="ann")
        stream = signature_stream(linear)
        for signature, vector in stream:
            linear_hit, _ = linear.search(GROUP, vector, signature)
            ann_hit, _ = ann.search(GROUP, vector, signature)
            # Same decision and, on a hit, the same served answer.
            assert (linear_hit is None) == (ann_hit is None), signature
            if linear_hit is not None:
                assert linear_hit.result == ann_hit.result
                assert linear_hit.signature == ann_hit.signature
            else:
                linear.put(GROUP, vector, signature, signature)
                ann.put(GROUP, vector, signature, signature)
        assert linear.stats.near_hits == ann.stats.near_hits
        assert linear.stats.fallbacks == ann.stats.fallbacks
        assert linear.stats.entries == ann.stats.entries

    def test_loose_thresholds_only_lose_recall_never_add_accepts(self):
        # At a loose threshold, "near" includes vectors whose buckets are
        # genuinely far apart, so ANN may miss matches linear finds.  The
        # divergence must only ever run in the safe direction: an ANN miss
        # is a fallback to exact execution, and every ANN accept is one
        # linear would also have made (with the identical served answer).
        linear = SemanticNearCache(threshold=0.90, mode="linear")
        ann = SemanticNearCache(threshold=0.90, mode="ann")
        stream = signature_stream(linear)
        divergences = 0
        for signature, vector in stream:
            linear_hit, _ = linear.search(GROUP, vector, signature)
            ann_hit, _ = ann.search(GROUP, vector, signature)
            if ann_hit is not None:
                assert linear_hit is not None
                assert ann_hit.result == linear_hit.result
            elif linear_hit is not None:
                divergences += 1
            if linear_hit is None:
                linear.put(GROUP, vector, signature, signature)
            if ann_hit is None:
                ann.put(GROUP, vector, signature, signature)
        # ANN never out-accepts linear.
        assert ann.stats.near_hits <= linear.stats.near_hits
        assert divergences == linear.stats.near_hits - ann.stats.near_hits

    def test_ann_never_accepts_what_linear_rejects(self):
        # The index can only *restrict* the candidate set: every ANN hit
        # must clear the same exact cosine check the linear scan applies.
        linear = SemanticNearCache(threshold=0.97, mode="linear")
        ann = SemanticNearCache(threshold=0.97, mode="ann")
        stream = signature_stream(linear)
        for signature, vector in stream[:4]:
            linear.put(GROUP, vector, signature, signature)
            ann.put(GROUP, vector, signature, signature)
        # Dissimilar on *both* sides of the signature (different query
        # terms too — the shared keyword mass is what makes same-query
        # signatures similar).
        probe_sig = term_signature(("tea", "garden"), ("submarine", "opera"))
        probe_vec = linear.embed_signature(probe_sig)
        assert linear.search(GROUP, probe_vec, probe_sig)[0] is None
        assert ann.search(GROUP, probe_vec, probe_sig)[0] is None


class TestMultiProbeRecall:
    def _boundary_pair(self, cache: SemanticNearCache):
        """A stored/query vector pair that straddles one hyperplane.

        The query is the stored vector reflected through its lowest-margin
        hyperplane: cosine similarity stays ~1 (the margin is tiny) but the
        home bucket differs in exactly that bit — the case multi-probe
        exists for.
        """
        signature = term_signature(KEYWORDS, CANDIDATE_LISTS[0])
        stored = cache.embed_signature(signature)
        matrix = cache.index._ensure_matrix(stored.shape[0])
        margins = matrix @ stored
        plane = int(np.argmin(np.abs(margins)))
        normal = matrix[plane]
        query = stored - 2 * margins[plane] * normal / float(normal @ normal)
        assert cache.index.key_of(query) != cache.index.key_of(stored)
        assert cosine_similarity(query, stored) > 0.999
        return signature, stored, query

    def test_zero_probes_misses_the_neighbour_bucket(self):
        cache = SemanticNearCache(threshold=0.999, mode="ann", probes=0)
        signature, stored, query = self._boundary_pair(cache)
        cache.put(GROUP, stored, signature, 0.5)
        entry, probes = cache.search(GROUP, query, "another-signature")
        assert entry is None                # recall miss: wrong bucket
        assert probes == 1                  # only the home bucket scanned

    def test_multi_probe_recovers_the_neighbour_bucket(self):
        cache = SemanticNearCache(threshold=0.999, mode="ann", probes=8)
        signature, stored, query = self._boundary_pair(cache)
        cache.put(GROUP, stored, signature, 0.5)
        entry, probes = cache.search(GROUP, query, "another-signature")
        assert entry is not None            # the flipped bit was probed
        assert entry.result == 0.5
        assert probes >= 2
        # Linear mode agrees, so multi-probe restored exact-scan recall.
        linear = SemanticNearCache(threshold=0.999, mode="linear")
        linear.put(GROUP, stored, signature, 0.5)
        assert linear.search(GROUP, query, "another-signature")[0] is not None


class TestInvalidation:
    def test_eviction_drops_index_entries_with_cache_entries(self):
        cache = SemanticNearCache(threshold=0.999, mode="ann", capacity=3)
        stream = signature_stream(cache)
        for signature, vector in stream[:5]:
            cache.put(GROUP, vector, signature, signature)
        assert cache.stats.entries == 3
        assert len(cache.index) == 3

    def test_clear_drops_index_entries(self):
        cache = SemanticNearCache(threshold=0.999, mode="ann")
        for signature, vector in signature_stream(cache)[:4]:
            cache.put(GROUP, vector, signature, signature)
        assert len(cache.index) == 4
        cache.clear()
        assert cache.stats.entries == 0
        assert len(cache.index) == 0
        assert cache.index.occupancy()["buckets"] == 0

    def test_volatile_only_gateway_clear_drops_semantic_index(self):
        gateway = ModelGateway(GatewayConfig(enable_semantic=True,
                                             semantic_threshold=0.999))
        meter = CostMeter()
        model = EmbeddingModel(lexicon=default_lexicon(), cost_meter=meter)
        proxy = GatewayModelProxy(model, gateway.client("s"))
        proxy.match_fraction(list(KEYWORDS), ["war", "battle"])
        assert gateway.semantic.stats.entries == 1
        assert len(gateway.semantic.index) == 1
        gateway.clear(volatile_only=True)
        assert gateway.semantic.stats.entries == 0
        assert len(gateway.semantic.index) == 0

    def test_corpus_reload_drops_semantic_index_entries(self):
        corpus = build_movie_corpus(size=3, seed=7)
        service = KathDBService(KathDBConfig(seed=7, monitor_enabled=False,
                                             explore_variants=False))
        service.load_corpus(corpus)
        session = service.session(name="tenant")
        session.models.embeddings.match_fraction(list(KEYWORDS),
                                                 ["war", "battle"])
        assert service.gateway.semantic.stats.entries > 0
        assert len(service.gateway.semantic.index) > 0

        service.load_corpus(corpus)
        assert service.gateway.semantic.stats.entries == 0
        assert len(service.gateway.semantic.index) == 0
        # The tier re-fills after the reload.  (An identical re-issue would
        # be answered by the exact cache — text-keyed entries survive the
        # volatile-only clear — so reorder the terms: new exact key, the
        # semantic tier is consulted, misses, and stores the fresh answer.)
        fresh = service.session(name="tenant2")
        fresh.models.embeddings.match_fraction(list(reversed(KEYWORDS)),
                                               ["battle", "war"])
        assert service.gateway.semantic.stats.entries > 0
        assert len(service.gateway.semantic.index) > 0
        service.shutdown()


def match_fraction_many(suite, query_terms, candidate_lists):
    """One vectorized ``match_fraction`` per candidate list."""
    return suite.call_many("embeddings", "match_fraction",
                           [((query_terms, candidates), {})
                            for candidates in candidate_lists])


class TestVectorizedFunnelUnderAnn:
    def _routed(self, **overrides):
        config = dict(enable_semantic=True, semantic_threshold=0.999,
                      semantic_mode="ann")
        config.update(overrides)
        gateway = ModelGateway(GatewayConfig(**config))
        meter = CostMeter()
        suite = ModelSuite.create(cost_meter=meter).routed(gateway, "s")
        return gateway, suite, meter

    def test_batched_misses_still_batch_and_fill_the_tier(self):
        gateway, suite, _ = self._routed()
        lists = [["war", "battle"], ["picnic", "beach"], ["ghost", "scream"]]
        match_fraction_many(suite, KEYWORDS, lists)
        client = gateway.client("s")
        # The vector executed as one batched chunk (no serial fallback) and
        # every computed member landed in the tier under its signature.
        assert client.counters.batch_calls == 1
        assert client.counters.misses == len(lists)
        assert gateway.semantic.stats.entries == len(lists)

    def test_variant_batch_is_served_by_near_hits_without_executing(self):
        gateway, suite, meter = self._routed()
        base = [["war", "battle"], ["picnic", "beach"], ["ghost", "scream"]]
        scores = match_fraction_many(suite, KEYWORDS, base)
        client = gateway.client("s")
        marker = client.counters.snapshot()
        spent = meter.total_tokens
        variants = [[t.title() for t in terms] for terms in base]
        served = match_fraction_many(suite, KEYWORDS, variants)
        delta = client.counters.delta(marker)
        assert served == scores             # embedder normalizes case
        assert delta["semantic_hits"] == len(base)
        assert delta["misses"] == 0 and delta["batch_calls"] == 0
        assert meter.total_tokens == spent  # near-hits charge nobody

    def test_mixed_batch_splits_between_tier_and_execution(self):
        gateway, suite, _ = self._routed()
        match_fraction_many(suite, KEYWORDS,
                            [["war", "battle"], ["picnic", "beach"]])
        client = gateway.client("s")
        marker = client.counters.snapshot()
        mixed = [["War", "Battle"],          # near-hit (case variant)
                 ["submarine", "desert"],    # novel: must execute
                 ["opera", "violin"]]        # novel: must execute
        match_fraction_many(suite, KEYWORDS, mixed)
        delta = client.counters.delta(marker)
        assert delta["semantic_hits"] == 1
        assert delta["misses"] == 2
        assert delta["batch_calls"] == 1     # the two misses still batched

    def test_serial_and_batch_funnels_share_the_tier(self):
        gateway, suite, _ = self._routed()
        serial = suite.embeddings.match_fraction(list(KEYWORDS), ["war", "battle"])
        [batched] = match_fraction_many(
            suite, KEYWORDS, [[t.title() for t in ("war", "battle")]])
        assert batched == serial
        assert gateway.client("s").counters.semantic_hits == 1

    def test_linear_mode_serves_the_same_vectors(self):
        gateway, suite, _ = self._routed(semantic_mode="linear")
        base = [["war", "battle"], ["picnic", "beach"]]
        scores = match_fraction_many(suite, KEYWORDS, base)
        variants = [[t.title() for t in terms] for terms in base]
        assert match_fraction_many(suite, KEYWORDS, variants) == scores
        assert gateway.client("s").counters.semantic_hits == len(base)


#: Keyword families the generated scoring functions plausibly emit.
KEYWORD_FAMILIES = (
    KEYWORDS,
    ("love", "romance", "kiss", "wedding", "heart"),
    ("ghost", "monster", "scream", "haunted", "blood"),
)


def build_scoring_requests(corpus):
    """A scoring-shaped predicate request stream: (query terms, candidates).

    * each movie's plot terms against each keyword family (one pass of the
      match-density scoring body);
    * re-issues of those as another tenant would type them: title-cased
      terms (the embedder normalizes case, so the answer is provably equal)
      and reversed argument order (signature-identical by construction);
    * genuinely different requests: a disjoint plot slice, and the plot
      terms plus one unseen term — close in signature space, but a
      different request whose answer may differ.
    """
    base, variant, novel = [], [], []
    for position, movie in enumerate(corpus.movies):
        words = content_words(movie.plot)
        terms, late = tuple(words[:18]), tuple(words[18:36])
        if not terms:
            continue
        for family, keywords in enumerate(KEYWORD_FAMILIES):
            base.append((keywords, terms))
            if (position + family) % 2 == 0:
                variant.append((tuple(t.title() for t in keywords),
                                tuple(t.title() for t in terms)))
            else:
                variant.append((tuple(reversed(keywords)),
                                tuple(reversed(terms))))
        if late:
            novel.append((KEYWORD_FAMILIES[0], late))
        novel.append((KEYWORD_FAMILIES[position % len(KEYWORD_FAMILIES)],
                      terms + (f"zzquux{position}",)))
    return base + variant + novel


class TestAccuracyAudit:
    """Every answer the tier serves, compared against exact execution.

    Misses store the exact answer, as the gateway does on a miss.  This is
    where the service's threshold comes from: it serves near-hits with zero
    false accepts, while the tier's original 0.97 serves wrong answers.
    """

    @pytest.fixture(scope="class")
    def stream(self):
        return build_scoring_requests(build_movie_corpus(size=16, seed=7))

    def audit(self, stream, threshold, mode):
        model = EmbeddingModel(lexicon=default_lexicon())
        cache = SemanticNearCache(threshold=threshold, capacity=8192, mode=mode)
        near_hits = false_accepts = 0
        for query, candidates in stream:
            signature = term_signature(query, candidates)
            vector = cache.embed_signature(signature)
            entry, _ = cache.search(GROUP, vector, signature)
            exact = model.match_fraction(list(query), list(candidates))
            if entry is None:
                cache.put(GROUP, vector, signature, exact)
                continue
            near_hits += 1
            false_accepts += entry.result != exact
        return near_hits, false_accepts

    @pytest.mark.parametrize("mode", ["linear", "ann"])
    def test_service_threshold_has_zero_false_accepts(self, stream, mode):
        near_hits, false_accepts = self.audit(
            stream, SEMANTIC_SIMILARITY_THRESHOLD, mode)
        assert near_hits > 0
        assert false_accepts == 0

    def test_original_threshold_serves_wrong_answers(self, stream):
        _, false_accepts = self.audit(stream, 0.97, "ann")
        assert false_accepts > 0


class TestKnobs:
    def test_service_default_is_ann_on(self):
        config = KathDBConfig()
        assert config.enable_semantic_cache
        assert config.semantic_cache_mode == "ann"
        gateway_config = config.gateway_config()
        assert gateway_config.enable_semantic
        assert gateway_config.semantic_mode == "ann"
        assert gateway_config.semantic_threshold == SEMANTIC_SIMILARITY_THRESHOLD
        assert gateway_config.semantic_planes == config.semantic_ann_planes
        assert gateway_config.semantic_probes == config.semantic_ann_probes

    def test_knobs_reach_the_index(self):
        service = KathDBService(KathDBConfig(semantic_ann_planes=10,
                                             semantic_ann_probes=3))
        assert service.gateway.semantic.index.planes == 10
        assert service.gateway.semantic.index.probes == 3
        service.shutdown()

    def test_config_validation(self):
        with pytest.raises(KathDBError, match="semantic_cache_mode"):
            CoreConfig(semantic_cache_mode="hnsw")
        with pytest.raises(KathDBError, match="semantic_ann_planes"):
            CoreConfig(semantic_ann_planes=0)
        with pytest.raises(KathDBError, match="semantic_ann_probes"):
            CoreConfig(semantic_ann_probes=-1)
        with pytest.raises(ValueError, match="mode"):
            SemanticNearCache(mode="hnsw")

    def test_cli_semantic_cache_flag(self):
        from repro.cli import build_arg_parser
        parser = build_arg_parser()
        assert parser.parse_args([]).semantic_cache is None
        assert parser.parse_args(["--semantic-cache", "off"]).semantic_cache \
            == "off"
        assert parser.parse_args(["--semantic-cache", "linear"]).semantic_cache \
            == "linear"
        with pytest.raises(SystemExit):
            parser.parse_args(["--semantic-cache", "bogus"])

    def test_gateway_stats_surface_ann_counters(self):
        gateway = ModelGateway(GatewayConfig(enable_semantic=True,
                                             semantic_threshold=0.999))
        meter = CostMeter()
        model = EmbeddingModel(lexicon=default_lexicon(), cost_meter=meter)
        proxy = GatewayModelProxy(model, gateway.client("s"))
        proxy.match_fraction(list(KEYWORDS), ["war", "battle"])
        proxy.match_fraction(list(reversed(KEYWORDS)), ["battle", "war"])
        flat = gateway.flat_stats()
        assert flat["semantic_mode"] == "ann"
        assert flat["semantic_hits"] == 1
        assert flat["semantic_entries"] == 1
        assert flat["ann_buckets"] == 1
        assert flat["ann_probes"] >= 1
        windowed = gateway.windowed_stats(60.0)
        assert windowed["semantic_hits"] == 1
        assert windowed["semantic_probes"] >= 1
