"""Tests for the multi-tenant fair-share scheduler and the admission-aware API.

Covers the scheduler's fairness contract (deficit round-robin interleaving of
a hog and a light tenant), structured backpressure (shed + retry round-trips),
deadline semantics (expiry before dispatch and mid-execution, with no session
corruption and no leaked admission slots), the request API's defaults, and
the tenant-keyed quota ledger.
"""

import threading
import time

import pytest

from repro import (
    KathDBConfig,
    KathDBService,
    QueryOptions,
    QueryRequest,
)
from repro.errors import QueryCancelledError, SchedulerRejection
from repro.gateway.admission import AdmissionController
from repro.sched import CancelToken, FairShareScheduler
from repro.sched.cancel import activate, check_current_cancel
from repro.sched.scheduler import default_reservations

RECENT_QUERY = "List the films released after 2000."
BORING_QUERY = "Which films have a boring poster?"


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


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        assert time.perf_counter() < deadline, "condition never became true"
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# CancelToken
# ---------------------------------------------------------------------------
class TestCancelToken:
    def test_deadline_expiry(self):
        token = CancelToken(deadline_s=0.0)
        assert token.expired
        assert token.cancelled
        assert token.reason == "deadline"
        with pytest.raises(QueryCancelledError):
            token.check()

    def test_live_token_is_a_noop(self):
        token = CancelToken(deadline_s=60.0)
        assert not token.cancelled
        assert token.reason == ""
        token.check()  # must not raise
        assert 0.0 < token.remaining_s() <= 60.0

    def test_explicit_cancel_first_reason_wins(self):
        token = CancelToken()
        assert token.remaining_s() is None
        token.cancel("caller-abort")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "caller-abort"

    def test_with_deadline_ms(self):
        assert CancelToken.with_deadline_ms(None).deadline_pc is None
        assert CancelToken.with_deadline_ms(50.0).deadline_pc is not None

    def test_ambient_token_via_contextvar(self):
        token = CancelToken()
        token.cancel("stop")
        check_current_cancel()  # nothing installed: no-op
        with activate(token):
            with pytest.raises(QueryCancelledError) as excinfo:
                check_current_cancel()
            assert excinfo.value.reason == "stop"
        check_current_cancel()  # uninstalled again


# ---------------------------------------------------------------------------
# FairShareScheduler (unit level)
# ---------------------------------------------------------------------------
class TestReservations:
    def test_default_split(self):
        assert default_reservations(4) == {
            "interactive": 2, "batch": 1, "background": 1}
        assert default_reservations(1) == {
            "interactive": 1, "batch": 0, "background": 0}
        # Interactive always keeps at least one slot.
        for workers in range(1, 12):
            split = default_reservations(workers)
            assert split["interactive"] >= 1
            assert sum(split.values()) <= workers

    def test_overcommitted_reservations_are_clamped(self):
        sched = FairShareScheduler(
            workers=2, reservations={"interactive": 2, "batch": 2, "background": 2})
        try:
            reserved = {cls: board.reserved for cls, board in sched.boards.items()}
            # Clamped from the lowest class backwards; guarantees never
            # exceed the pool.
            assert sum(reserved.values()) <= 2
            assert reserved["interactive"] == 2
            assert reserved["batch"] == 0
            assert reserved["background"] == 0
        finally:
            sched.shutdown()

    def test_unknown_class_is_rejected(self):
        sched = FairShareScheduler(workers=1)
        try:
            with pytest.raises(SchedulerRejection) as excinfo:
                sched.submit(lambda task: None, tenant="t", sched_class="realtime")
            assert excinfo.value.reason == "unknown-class"
        finally:
            sched.shutdown()


class TestFairness:
    def test_light_tenant_interleaves_with_hog(self):
        """DRR drains hog and light alternately even though the hog queued
        its whole backlog first — the light tenant's time-in-queue is bounded
        by the hog's *share*, not the hog's backlog."""
        sched = FairShareScheduler(workers=1)
        order = []
        lock = threading.Lock()
        gate = threading.Event()

        def blocker(task):
            gate.wait(10.0)

        def work(label):
            def runner(task):
                with lock:
                    order.append(label)
            return runner

        try:
            hold = sched.submit(blocker, tenant="hog")
            wait_until(lambda: sched.stats()["running"] == 1)
            futures = [sched.submit(work(f"hog{i}"), tenant="hog")
                       for i in range(6)]
            futures += [sched.submit(work(f"light{i}"), tenant="light")
                        for i in range(2)]
            gate.set()
            hold.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
            # Both light tasks drain within the first four slots: the round
            # robin alternates hog/light until the light queue empties.
            light_positions = [order.index("light0"), order.index("light1")]
            assert max(light_positions) <= 3, order
        finally:
            sched.shutdown()

    def test_tenant_weights_grant_extra_share(self):
        """A weight-3 tenant drains three tasks per round-robin visit."""
        sched = FairShareScheduler(workers=1, tenant_weights={"heavy": 3.0})
        order = []
        gate = threading.Event()

        def work(label):
            def runner(task):
                order.append(label)
            return runner

        try:
            hold = sched.submit(lambda task: gate.wait(10.0), tenant="x")
            wait_until(lambda: sched.stats()["running"] == 1)
            futures = [sched.submit(work(f"heavy{i}"), tenant="heavy")
                       for i in range(6)]
            futures += [sched.submit(work(f"plain{i}"), tenant="plain")
                        for i in range(6)]
            gate.set()
            hold.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
            # In the first 4 completions the heavy tenant holds a 3:1 edge.
            head = order[:4]
            assert sum(1 for label in head if label.startswith("heavy")) == 3, order
        finally:
            sched.shutdown()


class TestBackpressure:
    def test_full_queue_sheds_and_retry_succeeds(self):
        sched = FairShareScheduler(workers=1, queue_limit=2)
        gate = threading.Event()
        try:
            hold = sched.submit(lambda task: gate.wait(10.0), tenant="t")
            wait_until(lambda: sched.stats()["running"] == 1)
            queued = [sched.submit(lambda task: "ok", tenant="t") for _ in range(2)]
            with pytest.raises(SchedulerRejection) as excinfo:
                sched.submit(lambda task: "ok", tenant="t")
            rejection = excinfo.value
            assert rejection.reason == "backpressure"
            assert rejection.tenant_id == "t"
            assert rejection.sched_class == "interactive"
            assert rejection.queue_depth == 2
            stats = sched.stats()
            assert stats["shed"] == 1
            assert stats["tenants"]["t"]["shed"] == 1

            # Round-trip: drain the queue, then the retry is admitted.
            gate.set()
            hold.result(timeout=10)
            for future in queued:
                assert future.result(timeout=10) == "ok"
            assert sched.submit(lambda task: "retried", tenant="t"
                                ).result(timeout=10) == "retried"
        finally:
            sched.shutdown()

    def test_per_tenant_queues_isolate_backpressure(self):
        """One tenant's full queue must not shed another tenant's work."""
        sched = FairShareScheduler(workers=1, queue_limit=1)
        gate = threading.Event()
        try:
            hold = sched.submit(lambda task: gate.wait(10.0), tenant="hog")
            wait_until(lambda: sched.stats()["running"] == 1)
            sched.submit(lambda task: None, tenant="hog")
            with pytest.raises(SchedulerRejection):
                sched.submit(lambda task: None, tenant="hog")
            # The light tenant still has its own slot.
            light = sched.submit(lambda task: "light", tenant="light")
            gate.set()
            hold.result(timeout=10)
            assert light.result(timeout=10) == "light"
        finally:
            sched.shutdown()


class TestDeadlines:
    def test_lapsed_deadline_sheds_before_queueing(self):
        sched = FairShareScheduler(workers=1)
        ran = []
        try:
            future = sched.submit(
                lambda task: ran.append(True),
                tenant="t", token=CancelToken(deadline_s=0.0),
                shed_result=lambda task, reason: f"shed:{reason}")
            assert future.result(timeout=5) == "shed:deadline"
            assert ran == []
            stats = sched.stats()
            assert stats["expired"] == 1
            assert stats["tenants"]["t"]["expired"] == 1
        finally:
            sched.shutdown()

    def test_deadline_lapsing_in_queue_never_dispatches(self):
        """A task whose deadline expires while it waits is shed at dispatch
        time — the worker is not spent on dead work and no slot leaks."""
        sched = FairShareScheduler(workers=1)
        gate = threading.Event()
        ran = []
        try:
            hold = sched.submit(lambda task: gate.wait(10.0), tenant="t")
            wait_until(lambda: sched.stats()["running"] == 1)
            doomed = sched.submit(lambda task: ran.append(True), tenant="t",
                                  token=CancelToken(deadline_s=0.02))
            time.sleep(0.05)  # let the deadline lapse while queued
            gate.set()
            hold.result(timeout=10)
            with pytest.raises(SchedulerRejection) as excinfo:
                doomed.result(timeout=10)
            assert excinfo.value.reason == "deadline"
            assert ran == []
            wait_until(lambda: sched.stats()["running"] == 0)
            assert sched.stats()["expired"] == 1
        finally:
            sched.shutdown()

    def test_mid_execution_cancellation_via_ambient_token(self):
        """Running work observes the lapsed deadline cooperatively through
        the ambient token (the same channel the engine and gateway use)."""
        sched = FairShareScheduler(workers=1)

        def runner(task):
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                check_current_cancel()
                time.sleep(0.005)
            raise AssertionError("cancellation never observed")

        try:
            future = sched.submit(runner, tenant="t",
                                  token=CancelToken(deadline_s=0.05))
            with pytest.raises(QueryCancelledError) as excinfo:
                future.result(timeout=10)
            assert excinfo.value.reason == "deadline"
        finally:
            sched.shutdown()


class TestLifecycle:
    def test_shutdown_sheds_queued_work(self):
        sched = FairShareScheduler(workers=1)
        gate = threading.Event()
        hold = sched.submit(lambda task: gate.wait(10.0), tenant="t")
        wait_until(lambda: sched.stats()["running"] == 1)
        queued = sched.submit(lambda task: "never", tenant="t")
        stopper = threading.Thread(target=sched.shutdown)
        stopper.start()
        with pytest.raises(SchedulerRejection) as excinfo:
            queued.result(timeout=10)
        assert excinfo.value.reason == "shutdown"
        gate.set()
        hold.result(timeout=10)
        stopper.join(timeout=10)
        with pytest.raises(SchedulerRejection) as late:
            sched.submit(lambda task: None, tenant="t")
        assert late.value.reason == "shutdown"

    def test_drained_tenant_queues_are_dropped(self, corpus):
        """Each request's default tenant is its own fresh session name, so a
        queue kept after it drains would grow with the request count."""
        svc = fresh_service(corpus)
        try:
            for _ in range(100):
                assert svc.query(RECENT_QUERY).ok
            batch = svc.query_batch([QueryRequest(nl_query=RECENT_QUERY)
                                     for _ in range(100)], jobs=4)
            assert all(response.ok for response in batch)
            boards = svc.scheduler.boards.values()
            assert all(not board.queues and not board.active for board in boards)
            assert svc.scheduler_stats()["tenants"] == {}
        finally:
            svc.shutdown()

    def test_run_inline_and_in_worker(self):
        sched = FairShareScheduler(workers=1)
        try:
            assert not sched.in_worker()
            seen = sched.submit(lambda task: sched.in_worker(), tenant="t"
                                ).result(timeout=10)
            assert seen is True
            assert sched.run_inline(lambda task: task.tenant, tenant="inline") \
                == "inline"
        finally:
            sched.shutdown()

    def test_ensure_workers_grows_but_never_shrinks(self):
        sched = FairShareScheduler(workers=1)
        try:
            sched.ensure_workers(3)
            assert sched.workers == 3
            sched.ensure_workers(2)
            assert sched.workers == 3
        finally:
            sched.shutdown()


# ---------------------------------------------------------------------------
# Tenant-keyed admission quota
# ---------------------------------------------------------------------------
class TestTenantQuota:
    def test_spend_is_shared_across_sessions_of_one_tenant(self):
        """Throwaway sessions cannot dodge the quota: the ledger is keyed by
        tenant id, and every session of that tenant draws it down."""
        admission = AdmissionController(session_token_quota=100)
        admission.charge("acme", 90)
        admission.charge("acme", 20)  # over quota now
        from repro.errors import SessionQuotaExceededError
        with pytest.raises(SessionQuotaExceededError):
            admission.precheck("acme")
        # Another tenant is unaffected.
        admission.precheck("bravo")
        assert admission.spent("acme") == 110

    def test_service_sessions_share_their_tenant_ledger(self, corpus):
        svc = fresh_service(corpus, session_token_quota=100_000)
        try:
            # Exhaust the tenant directly, then open two fresh sessions on it:
            # both are blocked, proving session ids no longer shard the ledger.
            svc.gateway.admission.charge("acme", 100_001)
            for _ in range(2):
                response = svc.submit(QueryRequest(
                    nl_query=RECENT_QUERY, tenant_id="acme",
                )).result(timeout=120)
                assert not response.ok
                assert "quota" in (response.error or "").lower()
            # A different tenant still runs.
            assert svc.submit(QueryRequest(
                nl_query=RECENT_QUERY, tenant_id="bravo",
            )).result(timeout=120).ok
        finally:
            svc.shutdown()

    def test_gateway_client_defaults_tenant_to_session(self, corpus):
        svc = fresh_service(corpus, session_token_quota=1000)
        try:
            client = svc.gateway.client("sess-9")
            assert client.tenant_id == "sess-9"
            scoped = svc.gateway.client("sess-9", tenant_id="acme")
            assert scoped.tenant_id == "acme"
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# Service integration: the admission-aware request API
# ---------------------------------------------------------------------------
class TestRequestApi:
    def test_sched_params_resolution(self):
        request = QueryRequest(nl_query="q")
        assert request.sched_params() == (None, "interactive", None)
        request = QueryRequest(
            nl_query="q", tenant_id="req-tenant", priority="batch",
            deadline_ms=100.0,
            options=QueryOptions(tenant_id="opt-tenant", priority="background",
                                 deadline_ms=5.0))
        # Request-level fields win over option-level ones.
        assert request.sched_params() == ("req-tenant", "batch", 100.0)
        request = QueryRequest(
            nl_query="q", options=QueryOptions(tenant_id="opt", priority="batch"))
        assert request.sched_params() == ("opt", "batch", None)

    def test_defaults_fill_scheduling_metadata(self, corpus):
        svc = fresh_service(corpus)
        try:
            response = svc.query(RECENT_QUERY)
            assert response.ok, response.error
            assert response.sched_class == "interactive"
            assert response.queue_ms >= 0.0
            assert response.shed_reason is None
            # Absent tenant => the request's own session id.
            assert response.scheduler_stats["tenant"] == response.session_id
        finally:
            svc.shutdown()

    def test_explicit_tenant_and_priority(self, corpus):
        svc = fresh_service(corpus)
        try:
            response = svc.submit(QueryRequest(
                nl_query=RECENT_QUERY, tenant_id="acme", priority="batch",
            )).result(timeout=120)
            assert response.ok, response.error
            assert response.sched_class == "batch"
            assert response.scheduler_stats["tenant"] == "acme"
        finally:
            svc.shutdown()

    def test_describe_and_stats_surface_scheduler(self, corpus):
        svc = fresh_service(corpus)
        try:
            svc.query(RECENT_QUERY)
            assert "fair-share scheduler" in svc.describe()
            stats = svc.scheduler_stats()
            assert stats["admitted"] >= 1
            assert set(stats["classes"]) == {"interactive", "batch", "background"}
        finally:
            svc.shutdown()


class TestServiceDeadlines:
    def test_lapsed_deadline_yields_structured_shed(self, corpus):
        """A dead-on-arrival deadline produces ok=False with shed_reason set,
        leaks no admission slot, and leaves the service fully usable."""
        svc = fresh_service(corpus)
        try:
            expected = rows_of(svc.query(RECENT_QUERY))
            shed = svc.submit(QueryRequest(
                nl_query=RECENT_QUERY, tenant_id="acme", deadline_ms=0.0,
            )).result(timeout=120)
            assert not shed.ok
            assert shed.shed_reason == "deadline"
            assert "shed" in shed.error
            assert shed.result is None
            assert shed.scheduler_stats["expired"] >= 1
            # No leaked slot: nothing still counts as running or queued …
            wait_until(lambda: svc.scheduler.stats()["running"] == 0)
            assert svc.scheduler.stats()["queued"] == 0
            # … and the same query still runs, row-identical.
            assert rows_of(svc.query(RECENT_QUERY)) == expected
        finally:
            svc.shutdown()

    def test_mid_execution_deadline_cancels_without_corruption(self, corpus):
        """A deadline that lapses while the query is executing cancels it at
        the next operator/gateway boundary; the session and service state
        stay intact (the retry is row-identical to an untouched run)."""
        baseline = fresh_service(corpus)
        svc = fresh_service(corpus)
        try:
            expected = rows_of(baseline.query(BORING_QUERY))
            # The first, uncached run of this query costs ~100 ms of codegen
            # and model calls, so a 10 ms deadline reliably lapses in flight
            # (and at worst is shed pre-dispatch — also a structured shed).
            doomed = svc.submit(QueryRequest(
                nl_query=BORING_QUERY, tenant_id="acme", deadline_ms=10.0,
            )).result(timeout=120)
            assert not doomed.ok
            assert doomed.shed_reason == "deadline"
            wait_until(lambda: svc.scheduler.stats()["running"] == 0)
            # The interrupted session must not have corrupted shared state.
            assert rows_of(svc.query(BORING_QUERY)) == expected
        finally:
            baseline.shutdown()
            svc.shutdown()


class TestServiceBackpressure:
    def test_shed_response_and_retry_round_trip(self, corpus):
        svc = fresh_service(corpus, service_max_workers=1, sched_queue_limit=1)
        try:
            expected = rows_of(svc.query(RECENT_QUERY))  # also warms the plan
            gate = threading.Event()
            hold = svc.scheduler.submit(lambda task: gate.wait(10.0),
                                        tenant="hog")
            wait_until(lambda: svc.scheduler.stats()["running"] == 1)
            queued = svc.submit(QueryRequest(nl_query=RECENT_QUERY,
                                             tenant_id="hog"))
            shed = svc.submit(QueryRequest(nl_query=RECENT_QUERY,
                                           tenant_id="hog")).result(timeout=10)
            # The overflow request is shed, not blocked: structured response.
            assert not shed.ok
            assert shed.shed_reason == "backpressure"
            assert shed.sched_class == "interactive"
            assert shed.scheduler_stats["shed"] >= 1

            gate.set()
            hold.result(timeout=10)
            assert rows_of(queued.result(timeout=120)) == expected
            # Round-trip: once the queue drained, the retry is admitted.
            retry = svc.submit(QueryRequest(nl_query=RECENT_QUERY,
                                            tenant_id="hog")).result(timeout=120)
            assert rows_of(retry) == expected
        finally:
            svc.shutdown()

    def test_light_tenant_queue_time_bounded_under_hog(self, corpus):
        """Service-level fairness: a light tenant submitting *after* a hog's
        backlog still waits less than the hog's own tail."""
        svc = fresh_service(corpus, service_max_workers=1)
        try:
            svc.query(RECENT_QUERY)  # warm the prepared plan
            gate = threading.Event()
            hold = svc.scheduler.submit(lambda task: gate.wait(10.0),
                                        tenant="hog")
            wait_until(lambda: svc.scheduler.stats()["running"] == 1)
            hog = [svc.submit(QueryRequest(nl_query=RECENT_QUERY,
                                           tenant_id="hog"))
                   for _ in range(6)]
            light = [svc.submit(QueryRequest(nl_query=RECENT_QUERY,
                                             tenant_id="light"))
                     for _ in range(2)]
            gate.set()
            hold.result(timeout=10)
            hog_done = [f.result(timeout=120) for f in hog]
            light_done = [f.result(timeout=120) for f in light]
            assert all(r.ok for r in hog_done + light_done)
            # The light tenant enqueued last; FIFO would give it the worst
            # queue time, DRR dispatches it ahead of the hog's tail.
            assert max(r.queue_ms for r in light_done) \
                < max(r.queue_ms for r in hog_done)
        finally:
            svc.shutdown()


class TestBatchThroughScheduler:
    def test_batch_rows_identical_to_serial(self, corpus):
        svc = fresh_service(corpus, service_max_workers=4)
        try:
            expected = rows_of(svc.query(RECENT_QUERY))
            responses = svc.query_batch(
                [QueryRequest(nl_query=RECENT_QUERY, tenant_id=f"t{i % 2}")
                 for i in range(6)], jobs=3)
            assert len(responses) == 6
            for response in responses:
                assert rows_of(response) == expected
                assert response.sched_class == "interactive"
            stats = svc.scheduler_stats()
            assert stats["completed"] >= 6
        finally:
            svc.shutdown()

    def test_workers_start_on_demand(self, corpus):
        """No worker thread until work arrives; one per in-flight request
        up to the batch's ``jobs``."""
        before = set(threading.enumerate())

        def new_sched_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("kathdb-sched-")
                    and t not in before]

        svc = fresh_service(corpus, service_max_workers=4)
        try:
            assert new_sched_threads() == []
            assert svc.query(RECENT_QUERY).ok
            assert len(new_sched_threads()) == 1
            responses = svc.query_batch([RECENT_QUERY] * 6, jobs=4)
            assert all(r.ok for r in responses)
            assert 1 <= len(new_sched_threads()) <= 4
        finally:
            svc.shutdown()
