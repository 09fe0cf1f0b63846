"""Tests for the unified observability layer (``repro.obs``).

Covers the tentpole contract: per-query span trees (well-formed even when a
query errors or hits the repair loop), cross-session attribution of
coalesced-follower and batched-chunk gateway work, the service-wide metrics
registry backing the legacy stats surfaces unchanged, and the sinks (ring
buffer, JSONL, Chrome trace_event export, slow-query log).
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    KathDBConfig,
    KathDBService,
    QueryRequest,
    SilentUser,
    build_movie_corpus,
)
from repro.gateway.gateway import GatewayConfig, ModelGateway
from repro.gateway.vectorized import GatewayBatchClient
from repro.models.cost import CostMeter
from repro.obs import (
    EventLog,
    JsonlTraceSink,
    MetricsRegistry,
    SlowQueryLog,
    TraceRingBuffer,
    Tracer,
    chrome_trace_events,
)
from repro.obs.trace import attach, current_span, current_trace, record_span
from repro.obs.trace import span as obs_span

BORING_QUERY = "Which films have a boring poster?"


class CountingModel:
    """Instrumented stand-in model: counts executions, charges tokens."""

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
                                   prompt_tokens=self.tokens,
                                   completion_tokens=0)
        return {"echo": prompt}


@pytest.fixture(scope="module")
def corpus():
    return build_movie_corpus(size=6, seed=7)


def fresh_service(corpus, **overrides) -> KathDBService:
    defaults = dict(seed=7, monitor_enabled=False, explore_variants=False)
    defaults.update(overrides)
    svc = KathDBService(KathDBConfig(**defaults))
    svc.load_corpus(corpus)
    return svc


def assert_well_formed(trace):
    """Single root, unique ids, no orphans, every span finished."""
    ids = [s.span_id for s in trace.spans]
    assert len(ids) == len(set(ids))
    roots = [s for s in trace.spans if s.parent_id is None]
    assert len(roots) == 1 and roots[0] is trace.root
    known = set(ids)
    for span in trace.spans:
        if span.parent_id is not None:
            assert span.parent_id in known, f"orphan span {span.span_id}"
        assert span.finished, f"unfinished span {span.span_id}"
        assert span.duration_ms >= 0.0


# -- span trees -------------------------------------------------------------------

class TestSpanTrees:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.trace("query", session_id="s1") as trace:
            with obs_span("outer", kind="stage") as outer:
                with obs_span("inner", kind="operator", rows_in=3) as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert trace.finished and trace.status == "ok"
        assert_well_formed(trace)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == trace.root.span_id
        assert inner.tags["rows_in"] == 3
        assert trace.root.tags["session"] == "s1"

    def test_span_is_noop_without_an_active_trace(self):
        assert current_trace() is None
        with obs_span("orphan") as sp:
            assert sp.is_recording is False
            sp.tag(ignored=True)          # must not raise
        record_span("also-orphan", kind="model")   # must not raise

    def test_disabled_tracer_yields_none(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query") as trace:
            assert trace is None
            with obs_span("child") as sp:
                assert sp.is_recording is False

    def test_error_finishes_the_tree_well_formed(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("query") as trace:
                with obs_span("execute", kind="stage"):
                    with obs_span("op", kind="operator"):
                        raise RuntimeError("mid-operator failure")
        assert trace.finished and trace.status == "error"
        assert_well_formed(trace)
        errored = [s for s in trace.spans if s.status == "error"]
        # The failing span and every enclosing scope report the error.
        assert len(errored) == 3

    def test_attach_records_onto_a_foreign_threads_trace(self):
        tracer = Tracer()
        with tracer.trace("query") as trace:
            def worker():
                with attach(trace):
                    with obs_span("compile:x", kind="stage"):
                        pass
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert_well_formed(trace)
        names = [s.name for s in trace.spans]
        assert "compile:x" in names


# -- metrics ----------------------------------------------------------------------

class TestMetrics:
    def test_histogram_percentiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms.test")
        for value in range(1, 101):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert 40.0 <= summary["p50"] <= 60.0
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= 100.0

    def test_span_finish_feeds_the_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.trace("query", session_id="s9") as trace:
            trace.root.tag(tokens=42)
            with obs_span("op", kind="operator"):
                pass
            record_span("m.ask", kind="model", outcome="exact-hit")
        assert registry.span_count("query") == 1
        assert registry.span_count("operator") == 1
        assert registry.counter("model_calls.exact-hit").value == 1
        assert registry.counter("query_tokens").value == 42
        assert registry.histogram("latency_ms.query").count == 1
        # The query-finish event carries the session for windowed views.
        events = registry.events.window(60.0, session_id="s9")
        assert len(events) == 1 and events[0][1] == "query"

    def test_event_log_windows_by_horizon_and_session(self):
        log = EventLog()
        log.append("hits", count=1, value=5, session_id="a")
        log.append("misses", count=2, value=7, session_id="b")
        assert len(log.window(60.0)) == 2
        assert len(log.window(60.0, session_id="a")) == 1
        assert len(log.window(0.0)) == 0

    def test_views_surface_provider_dicts(self):
        registry = MetricsRegistry()
        registry.register_view("gw", lambda: {"hits": 3})
        assert registry.view("gw") == {"hits": 3}
        with pytest.raises(KeyError):
            registry.view("unknown")


# -- sinks ------------------------------------------------------------------------

class TestSinks:
    def _finished_trace(self, name="query", slow_operator_s=0.0, tracer=None):
        tracer = tracer if tracer is not None else Tracer()
        with tracer.trace(name, session_id="s1") as trace:
            trace.root.tag(query="q")
            with obs_span("fast_op", kind="operator"):
                pass
            with obs_span("slow_op", kind="operator"):
                if slow_operator_s:
                    time.sleep(slow_operator_s)
        return trace

    def test_ring_buffer_keeps_the_newest(self):
        ring = TraceRingBuffer(capacity=2)
        tracer = Tracer()
        traces = [self._finished_trace(tracer=tracer) for _ in range(3)]
        for trace in traces:
            ring.add(trace)
        assert len(ring) == 2
        assert ring.list() == traces[1:]
        assert ring.get(traces[2].trace_id) is traces[2]
        assert ring.get(traces[0].trace_id) is None   # evicted

    def test_jsonl_sink_appends_one_record_per_trace(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlTraceSink(path)
        sink.write(self._finished_trace())
        sink.write(self._finished_trace())
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2 and sink.written == 2
        record = json.loads(lines[0])
        assert record["status"] == "ok" and record["spans"]

    def test_jsonl_sink_buffers_until_flush(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlTraceSink(path, buffer_lines=10)
        sink.write(self._finished_trace())
        sink.write(self._finished_trace())
        # Buffered: counted as written, not yet on disk.
        assert sink.written == 2
        assert not path.exists() or not path.read_text().strip()
        sink.flush()
        assert len(path.read_text().strip().splitlines()) == 2

    def test_jsonl_sink_close_drains_and_refuses_writes(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlTraceSink(path, buffer_lines=100)
        sink.write(self._finished_trace())
        sink.close()
        sink.close()   # idempotent
        assert len(path.read_text().strip().splitlines()) == 1
        sink.write(self._finished_trace())   # after close: dropped
        assert len(path.read_text().strip().splitlines()) == 1

    def test_chrome_trace_events_structure(self):
        tracer = Tracer()
        traces = [self._finished_trace(tracer=tracer) for _ in range(2)]
        events = chrome_trace_events(traces)
        metas = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(metas) == 2                     # one lane name per trace
        assert len(slices) == sum(len(t.spans) for t in traces)
        assert len({e["tid"] for e in slices}) == 2
        for event in slices:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_slow_query_log_names_the_slowest_operator(self):
        trace = self._finished_trace(slow_operator_s=0.02)
        log = SlowQueryLog(threshold_ms=1.0)
        log.observe(trace)
        log.observe(self._finished_trace())        # fast: only logged if slow
        entries = log.entries()
        assert entries and entries[0]["trace_id"] == trace.trace_id
        slowest = entries[0]["slowest_operator"]
        assert slowest["name"] == "slow_op"
        assert trace.find(slowest["span_id"]).kind == "operator"

    def test_slow_query_log_disabled_without_threshold(self):
        log = SlowQueryLog(threshold_ms=None)
        assert not log.enabled
        log.observe(self._finished_trace(slow_operator_s=0.01))
        assert log.entries() == []


# -- gateway attribution ----------------------------------------------------------

class TestGatewayAttribution:
    def test_coalesced_follower_attributes_to_its_own_trace(self):
        gateway = ModelGateway(GatewayConfig(enable_cache=False))
        tracer = Tracer()
        models = {sid: CountingModel(CostMeter(), latency_s=0.15)
                  for sid in ("a", "b")}
        barrier = threading.Barrier(2)
        traces = {}

        def call(sid):
            with tracer.trace("query", session_id=sid) as trace:
                traces[sid] = trace
                barrier.wait()
                return gateway.client(sid).invoke(models[sid], "ask",
                                                  ("same",), {})

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(call, ("a", "b")))
        assert results[0] == results[1]

        outcomes = {}
        for sid, trace in traces.items():
            assert_well_formed(trace)
            model_spans = [s for s in trace.spans if s.kind == "model"]
            assert len(model_spans) == 1
            assert model_spans[0].parent_id == trace.root.span_id
            outcomes[sid] = model_spans[0].tags["outcome"]
        # One leader executed; the other's span is the follower wait,
        # recorded on its *own* trace.
        assert sorted(outcomes.values()) == ["coalesced-follower", "executed"]

    def test_batched_chunk_span_lands_on_the_issuing_trace(self):
        gateway = ModelGateway(GatewayConfig())
        tracer = Tracer()
        client = GatewayBatchClient(gateway.client("s"))
        model = CountingModel(CostMeter())
        calls = [((f"p{i}",), {}) for i in range(4)]
        with tracer.trace("query", session_id="s") as trace:
            client.invoke(model, "ask", calls)
        assert_well_formed(trace)
        chunk_spans = [s for s in trace.spans
                       if s.tags.get("outcome") == "batched-chunk"]
        assert len(chunk_spans) == 1
        assert chunk_spans[0].tags["batch_size"] == 4

        # Re-issuing the batch answers every member from the shared cache:
        # the members aggregate into one exact-hit model span (mirroring
        # the chunk span), still on the caller's trace.
        with tracer.trace("query", session_id="s") as rerun:
            client.invoke(model, "ask", calls)
        hits = [s for s in rerun.spans
                if s.tags.get("outcome") == "exact-hit"]
        assert len(hits) == 1
        assert hits[0].tags["members"] == 4


# -- service integration ----------------------------------------------------------

class TestServiceObservability:
    def test_response_carries_trace_and_latency(self, corpus):
        svc = fresh_service(corpus)
        response = svc.query(BORING_QUERY)
        assert response.ok
        assert response.latency_ms > 0
        assert response.trace_id and response.trace_spans
        assert f"{response.trace_id}" in response.describe()
        trace = svc.trace(response.trace_id)
        assert trace is not None and trace.finished
        assert_well_formed(trace)
        kinds = {s.kind for s in trace.spans}
        assert {"query", "stage", "operator", "model"} <= kinds
        stages = {s.name for s in trace.spans if s.kind == "stage"}
        assert {"prepare", "execute"} <= stages
        outcomes = {s.tags.get("outcome") for s in trace.spans
                    if s.kind == "model"}
        assert outcomes <= {"exact-hit", "semantic-hit", "coalesced-follower",
                            "batched-chunk", "executed"}

    def test_concurrent_batch_attributes_spans_per_session(self, corpus):
        svc = fresh_service(corpus, simulate_model_latency=0.5,
                            enable_micro_batching=False)
        requests = [QueryRequest(nl_query=BORING_QUERY, user=SilentUser())
                    for _ in range(4)]
        responses = svc.query_batch(requests, jobs=4)
        assert all(r.ok for r in responses)
        trace_ids = [r.trace_id for r in responses]
        assert len(set(trace_ids)) == 4

        shared_outcomes = 0
        for response in responses:
            trace = svc.trace(response.trace_id)
            assert trace is not None
            assert_well_formed(trace)
            # Every span of this trace belongs to this response's session.
            assert trace.session_id == response.session_id
            assert trace.root.tags["session"] == response.session_id
            for span in trace.spans:
                if span.kind == "model" and span.tags.get("outcome") in (
                        "exact-hit", "semantic-hit", "coalesced-follower"):
                    shared_outcomes += 1
        # Identical concurrent queries must share work — and each share
        # must be visible in the *waiting* session's own trace.
        assert shared_outcomes > 0

    def test_shutdown_flushes_buffered_trace_sink(self, corpus, tmp_path):
        path = tmp_path / "traces.jsonl"
        svc = fresh_service(corpus, trace_jsonl_path=path)
        # Buffer aggressively: only shutdown's close() drains to disk.
        svc._trace_sink.buffer_lines = 1000
        assert svc.query(BORING_QUERY).ok
        svc.shutdown()
        svc.shutdown()   # idempotent: the second close must not re-drain
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= 1
        assert svc._trace_sink._closed

    def test_error_query_still_produces_a_finished_tree(self, corpus,
                                                        monkeypatch):
        svc = fresh_service(corpus)

        def boom(*args, **kwargs):
            raise RuntimeError("engine down")

        monkeypatch.setattr("repro.executor.engine.ExecutionEngine.execute",
                            boom)
        response = svc.query(BORING_QUERY)
        assert not response.ok
        assert response.trace_id is not None
        assert response.latency_ms > 0
        trace = svc.trace(response.trace_id)
        assert trace is not None and trace.finished
        assert trace.status == "error"
        assert_well_formed(trace)

    def test_repair_loop_shows_up_as_repair_spans(self, corpus):
        svc = fresh_service(corpus)
        session = svc.session(name="rep")
        engine = session.stack.engine
        original_repair = engine.coder.repair
        from repro.errors import FunctionExecutionError

        class FlakyFunction:
            """Delegate that fails once, then behaves."""

            def __init__(self, wrapped):
                self._wrapped = wrapped
                self._failed = False

            def __getattr__(self, name):
                return getattr(self._wrapped, name)

            def execute(self, inputs, context):
                if not self._failed:
                    self._failed = True
                    raise FunctionExecutionError("transient fault")
                return self._wrapped.execute(inputs, context)

        def repair_passthrough(node, function, hint):
            wrapped = getattr(function, "_wrapped", function)
            return original_repair(node, wrapped, hint)

        engine.coder.repair = repair_passthrough
        original_execute = engine._execute_operator
        state = {"armed": True}

        def execute_with_fault(operator, context, channel, result):
            if state["armed"]:
                state["armed"] = False
                operator.function = FlakyFunction(operator.function)
            return original_execute(operator, context, channel, result)

        engine._execute_operator = execute_with_fault
        response = session.query(BORING_QUERY)
        assert response.ok
        trace = svc.trace(response.trace_id)
        assert_well_formed(trace)
        repairs = [s for s in trace.spans
                   if s.name == "repair" and s.kind == "stage"]
        assert repairs and repairs[0].tags["reason"] == "runtime-error"
        # The repair nests inside the operator that failed.
        parent = trace.find(repairs[0].parent_id)
        assert parent is not None and parent.kind == "operator"

    def test_slow_query_log_records_trace_and_operator_span(self, corpus):
        svc = fresh_service(corpus, slow_query_ms=0.0)
        response = svc.query(BORING_QUERY)
        assert response.ok
        entries = svc.slow_queries.entries()
        assert entries
        entry = entries[-1]
        assert entry["trace_id"] == response.trace_id
        slowest = entry["slowest_operator"]
        trace = svc.trace(entry["trace_id"])
        span = trace.find(slowest["span_id"])
        assert span is not None and span.kind == "operator"
        assert "slow-query log" in svc.describe()

    def test_operator_records_link_to_spans(self, corpus):
        svc = fresh_service(corpus)
        response = svc.query(BORING_QUERY)
        trace = svc.trace(response.trace_id)
        for record in response.result.records:
            assert record.span_id is not None
            span = trace.find(record.span_id)
            assert span is not None and span.kind == "operator"
            assert span.name == record.operator_name

    def test_tracing_disabled_is_row_identical_and_silent(self, corpus):
        traced = fresh_service(corpus)
        untraced = fresh_service(corpus, enable_tracing=False)
        a = traced.query(BORING_QUERY)
        b = untraced.query(BORING_QUERY)
        assert a.ok and b.ok
        assert [dict(r) for r in a.result.final_table] == \
            [dict(r) for r in b.result.final_table]
        # Spans never call models: tracing costs no tokens.
        assert a.total_tokens == b.total_tokens
        assert b.trace_id is None and b.trace_spans is None
        assert b.latency_ms > 0                    # latency is always measured
        assert untraced.traces() == []
        # Span-fed surfaces are empty, but the gateway counters still work.
        assert untraced.metrics.span_count("query") == 0
        assert untraced.gateway_stats()["cache_misses"] > 0

    def test_stats_views_keep_their_legacy_shape(self, corpus):
        svc = fresh_service(corpus, enable_skill_store=True)
        assert svc.query(BORING_QUERY).ok
        gateway_stats = svc.gateway.flat_stats()
        for key in ("cache_hits", "cache_misses", "coalesced",
                    "batched_calls", "tokens_saved"):
            assert key in gateway_stats
        skill_stats = svc.skill_stats()
        assert set(skill_stats) == {
            "exact_hits", "near_hits", "misses", "stores",
            "revalidations", "revalidation_failures", "demotions"}
        assert all(isinstance(v, int) for v in skill_stats.values())
        # Both surfaces are views over the shared registry.
        assert svc.metrics.view("gateway") == gateway_stats
        assert svc.metrics.view("skills") == skill_stats

    def test_windowed_stats_ride_the_shared_event_stream(self, corpus):
        svc = fresh_service(corpus)
        assert svc.query(BORING_QUERY).ok
        windowed = svc.gateway.windowed_stats(60.0)
        assert windowed["requests"] > 0
        # The gateway's event log *is* the registry's event log.
        assert svc.gateway.events is svc.metrics.events

    def test_jsonl_sink_and_chrome_export(self, corpus, tmp_path):
        jsonl = tmp_path / "traces.jsonl"
        svc = fresh_service(corpus, trace_jsonl_path=jsonl)
        response = svc.query(BORING_QUERY)
        assert response.ok
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["trace_id"] == response.trace_id

        out = tmp_path / "run.trace.json"
        events = svc.export_chrome_trace(out)
        assert events > 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_metrics_snapshot_covers_the_query(self, corpus):
        svc = fresh_service(corpus)
        assert svc.query(BORING_QUERY).ok
        snapshot = svc.metrics_snapshot()
        assert snapshot["counters"]["spans.query"] == 1
        assert snapshot["histograms"]["latency_ms.query"]["count"] == 1
        assert snapshot["histograms"]["latency_ms.operator"]["count"] > 0
