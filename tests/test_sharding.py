"""Tests for shared-nothing sharding: splitting, routing, scatter-gather."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.api.request import QueryRequest
from repro.api.service import KathDBService
from repro.core.config import KathDBConfig
from repro.data.mmqa import build_movie_corpus
from repro.errors import KathDBError
from repro.interaction.user import SilentUser
from repro.sharding import HashRing, ShardedService, split_corpus

CORPUS_SIZE = 10
SEED = 7


def quiet_config(**overrides):
    return KathDBConfig(seed=SEED, simulate_model_latency=0.0, **overrides)


def table_digest(table):
    """Rows minus the per-process lineage lid; blobs compare by URI."""
    return [{k: getattr(v, "uri", v) for k, v in dict(row).items()
             if k != "lid"} for row in table]


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        assert time.perf_counter() < deadline, "condition never became true"
        time.sleep(0.005)


@pytest.fixture(scope="module")
def corpus():
    return build_movie_corpus(size=CORPUS_SIZE, seed=SEED)


@pytest.fixture(scope="module")
def reference(corpus):
    """A single-process service over the same corpus (the ground truth)."""
    service = KathDBService(quiet_config())
    service.load_corpus(corpus)
    yield service
    service.shutdown()


@pytest.fixture()
def sharded(corpus):
    service = ShardedService(quiet_config(), shards=3)
    service.load_corpus(corpus)
    yield service
    service.shutdown()


# -- corpus splitting ------------------------------------------------------------------

class TestSplitCorpus:
    def test_slices_are_contiguous_and_order_preserving(self, corpus):
        slices = split_corpus(corpus, 3)
        assert [len(s.movies) for s in slices] == [4, 3, 3]
        rejoined = [m.movie_id for s in slices for m in s.movies]
        assert rejoined == [m.movie_id for m in corpus.movies]
        assert all(s.seed == corpus.seed for s in slices)

    def test_more_shards_than_documents(self, corpus):
        slices = split_corpus(corpus, CORPUS_SIZE + 5)
        assert len(slices) == CORPUS_SIZE + 5
        assert sum(len(s.movies) for s in slices) == CORPUS_SIZE

    def test_invalid_shard_count(self, corpus):
        with pytest.raises(ValueError):
            split_corpus(corpus, 0)


# -- the hash ring ---------------------------------------------------------------------

class TestHashRing:
    def test_deterministic_and_stable_across_instances(self):
        keys = [f"request-{i}" for i in range(100)]
        first = HashRing(range(4))
        second = HashRing(range(4))
        assert [first.node_for(k) for k in keys] == \
               [second.node_for(k) for k in keys]

    def test_reasonable_balance(self):
        ring = HashRing(range(4))
        counts = ring.distribution([f"key-{i}" for i in range(2000)])
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 2000 // 4 // 3

    def test_minimal_movement_on_resize(self):
        keys = [f"key-{i}" for i in range(1000)]
        ring = HashRing(range(4))
        before = {k: ring.node_for(k) for k in keys}
        ring.add(4)
        moved = sum(1 for k in keys
                    if ring.node_for(k) != before[k] and before[k] != 4)
        # Consistent hashing: ~1/5 of keys move to the new node; far fewer
        # than the near-total reshuffle of hash(key) % n.
        assert moved < len(keys) // 2
        assert all(ring.node_for(k) in (before[k], 4) for k in keys)
        ring.remove(4)
        assert {k: ring.node_for(k) for k in keys} == before

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing().node_for("anything")


# -- scatter-gather population and scans ----------------------------------------------

class TestPartitionedScans:
    def test_population_report_sums_shard_row_counts(self, sharded, reference):
        assert sharded.population_report.row_counts == \
            reference.population_report.row_counts

    def test_every_merged_scan_is_row_identical(self, sharded, reference):
        for name in reference.catalog.table_names():
            assert table_digest(sharded.scan(name)) == \
                table_digest(reference.catalog.table(name)), name

    def test_scan_of_unknown_table_raises(self, sharded):
        with pytest.raises(KathDBError):
            sharded.scan("no_such_table")

    def test_shard_paths_are_disjoint(self, tmp_path):
        config = quiet_config(gateway_cache_backend="sqlite",
                              gateway_cache_path=tmp_path / "gw.db",
                              trace_jsonl_path=tmp_path / "traces.jsonl")
        service = ShardedService(config, shards=2)
        paths = {shard.config.gateway_cache_path for shard in service.shards}
        assert len(paths) == 2
        trace_paths = {shard.config.trace_jsonl_path
                       for shard in service.shards}
        assert len(trace_paths) == 2
        service.shutdown()


# -- queries ---------------------------------------------------------------------------

class TestScatterQueries:
    QUERY = "movies released after 1990"

    def test_scatter_query_matches_single_process(self, sharded, reference):
        ours = sharded.query(self.QUERY, user=SilentUser())
        theirs = reference.query(self.QUERY, user=SilentUser())
        assert ours.ok and theirs.ok
        assert table_digest(ours.result.final_table) == \
            table_digest(theirs.result.final_table)

    def test_one_failing_shard_surfaces_a_structured_error(self, sharded):
        original = sharded.shards[1].query

        def explode(request, **kwargs):
            raise RuntimeError("disk on fire")

        sharded.shards[1].query = explode
        try:
            response = sharded.query(self.QUERY, user=SilentUser())
            # No hang, no partial rows: ok=False, the failing shard named,
            # result absent entirely.
            assert not response.ok
            assert response.error.startswith("shard 1:")
            assert "disk on fire" in response.error
            assert response.result is None
        finally:
            sharded.shards[1].query = original
        # Sibling shards stay fully usable for the next request.
        recovered = sharded.query(self.QUERY, user=SilentUser())
        assert recovered.ok

    def test_replicated_requests_route_consistently(self, corpus):
        service = ShardedService(quiet_config(), shards=2,
                                 placement="replicate")
        service.load_corpus(corpus)
        try:
            for _ in range(2):
                assert service.query(self.QUERY, user=SilentUser()).ok
            routed = [s["routed"] for s in service.shard_stats()]
            # Same fingerprint -> same home shard, twice.
            assert sorted(routed) == [0, 2]
        finally:
            service.shutdown()

    def test_query_batch_round_trips(self, sharded):
        requests = [QueryRequest(nl_query=self.QUERY, user=SilentUser())
                    for _ in range(2)]
        responses = sharded.query_batch(requests)
        assert [r.ok for r in responses] == [True, True]


    def test_partition_batch_concurrent_matches_serial(self, sharded):
        queries = [self.QUERY, "Which films have a boring poster?"] * 2
        serial = sharded.query_batch(
            [QueryRequest(nl_query=q, user=SilentUser()) for q in queries],
            jobs=1)
        concurrent = sharded.query_batch(
            [QueryRequest(nl_query=q, user=SilentUser()) for q in queries],
            jobs=2)
        assert all(r.ok for r in serial + concurrent)
        assert [table_digest(r.result.final_table) for r in concurrent] == \
            [table_digest(r.result.final_table) for r in serial]


class TestAdmission:
    BORING = "Which films have a boring poster?"

    def test_deadline_crosses_the_scatter(self, corpus, reference):
        """A coordinator deadline that lapses mid-query cancels the shards'
        work; nothing is left running and the next query is unharmed."""
        # A cold query under simulated model latency takes a few hundred ms.
        service = ShardedService(
            KathDBConfig(seed=SEED, simulate_model_latency=1.0), shards=2)
        service.load_corpus(corpus)
        try:
            doomed = service.query(QueryRequest(
                nl_query=self.BORING, user=SilentUser(), deadline_ms=50.0))
            assert not doomed.ok
            assert doomed.shed_reason == "deadline"
            assert doomed.result is None
            # Admitted by the coordinator, cancelled inside a shard.
            assert doomed.error.startswith("shard ")
            for shard in service.shards:
                wait_until(lambda s=shard: s.scheduler_stats()["running"] == 0)
            again = service.query(self.BORING, user=SilentUser())
            expected = reference.query(self.BORING, user=SilentUser())
            assert table_digest(again.result.final_table) == \
                table_digest(expected.result.final_table)
        finally:
            service.shutdown()

    @staticmethod
    def _backpressure_shed(service, workers):
        """Hold every worker, fill the hog's one queue slot, shed the next."""
        gate = threading.Event()
        holds = []
        for running in range(1, workers + 1):
            holds.append(service.scheduler.submit(lambda task: gate.wait(10.0),
                                                  tenant="hog"))
            wait_until(lambda: service.scheduler_stats()["running"] == running)
        queued = service.submit(QueryRequest(nl_query=TestScatterQueries.QUERY,
                                             user=SilentUser(), tenant_id="hog"))
        shed = service.submit(QueryRequest(nl_query=TestScatterQueries.QUERY,
                                           user=SilentUser(), tenant_id="hog"))
        shed = shed.result(timeout=10)
        gate.set()
        for hold in holds:
            hold.result(timeout=10)
        assert queued.result(timeout=120).ok
        return shed

    def test_coordinator_shed_matches_service_shed(self, corpus):
        sharded = ShardedService(quiet_config(sched_queue_limit=1), shards=2)
        single = KathDBService(quiet_config(sched_queue_limit=1),
                               max_workers=1)
        sharded.load_corpus(corpus)
        single.load_corpus(corpus)
        try:
            ours = self._backpressure_shed(sharded, workers=2)
            theirs = self._backpressure_shed(single, workers=1)
        finally:
            sharded.shutdown()
            single.shutdown()

        def populated(response):
            return {field.name for field in dataclasses.fields(response)
                    if getattr(response, field.name) is not None}

        for response in (ours, theirs):
            assert not response.ok
            assert response.shed_reason == "backpressure"
            assert response.sched_class == "interactive"
            assert response.scheduler_stats["tenant"] == "hog"
        assert populated(ours) == populated(theirs)
        assert set(ours.scheduler_stats) == set(theirs.scheduler_stats)


# -- lifecycle -------------------------------------------------------------------------

class TestLifecycle:
    def test_invalid_construction(self):
        with pytest.raises(KathDBError):
            ShardedService(quiet_config(), shards=0)
        with pytest.raises(KathDBError):
            ShardedService(quiet_config(), shards=2, placement="mirrored")

    def test_shutdown_is_idempotent_and_closes_shards(self, corpus):
        service = ShardedService(quiet_config(), shards=2)
        service.load_corpus(corpus)
        service.shutdown()
        service.shutdown()
        assert all(shard._closed for shard in service.shards)

    def test_context_manager(self, corpus):
        with ShardedService(quiet_config(), shards=2) as service:
            service.load_corpus(corpus)
        assert service._closed

    def test_describe_and_gauges(self, sharded):
        text = sharded.describe()
        assert "3 shards" in text
        snapshot = sharded.metrics.snapshot()
        assert snapshot["gauges"]["shard.0.catalog_tables"] > 0
