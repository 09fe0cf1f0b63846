"""The service-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per :class:`~repro.api.service.KathDBService`
is the single backing store behind every stats surface:

* the gateway's rolling event stream (``windowed_stats``) lives here as
  :class:`EventLog` — one lock, one retention policy — instead of a
  private deque inside ``ModelGateway``;
* the skill store's counters are registry :class:`Counter` objects;
* ``gateway_stats()`` / ``skill_stats()`` stay API-compatible as *views*
  registered with :meth:`MetricsRegistry.register_view`;
* every finished trace feeds :meth:`MetricsRegistry.observe_trace`, whose
  spans are aggregated into per-kind latency histograms (p50/p95/p99) and
  outcome counters for model calls.

All structures are thread-safe; timestamps use ``time.perf_counter``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Fixed histogram bucket upper bounds, in milliseconds.  Chosen to span
#: sub-millisecond operator work up to multi-second cold compiles.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Queued-trace cap: if nothing reads metrics for this many finished
#: queries, the next finisher aggregates the backlog inline so the queue
#: (which pins traces live) stays bounded and each inline drain stays a
#: sub-millisecond lump.
PENDING_DRAIN_LIMIT = 64


class Counter:
    """A monotonically-increasing thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value: set directly or backed by a callable."""

    __slots__ = ("name", "_value", "_fn", "_lock")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._fn = None

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            return float(fn())
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated p50/p95/p99.

    Values land in the first bucket whose upper bound contains them;
    one overflow bucket catches the rest.  Percentiles interpolate
    linearly within the winning bucket, clamped to the observed
    min/max so tiny samples do not report a bound nobody measured.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
                 ) -> None:
        self.name = name
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # First bucket whose upper bound contains the value; past-the-end
        # is the overflow bucket.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: List[float]) -> None:
        """Record a batch of values under one lock acquisition."""
        if not values:
            return
        bounds = self.bounds
        with self._lock:
            counts = self._counts
            for value in values:
                counts[bisect_left(bounds, value)] += 1
            self._sum += sum(values)
            self._count += len(values)
            low = min(values)
            if self._min is None or low < self._min:
                self._min = low
            high = max(values)
            if high > self._max:
                self._max = high

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """Interpolated percentile, ``q`` in (0, 1]."""
        with self._lock:
            count = self._count
            counts = list(self._counts)
            low = self._min if self._min is not None else 0.0
            high = self._max
        if count == 0:
            return 0.0
        target = q * count
        cumulative = 0.0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else high
                fraction = (target - cumulative) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, low), high)
            cumulative += bucket_count
        return high

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count = self._count
            total = self._sum
            low = self._min if self._min is not None else 0.0
            high = self._max
        return {
            "count": count,
            "sum": round(total, 3),
            "min": round(low, 3),
            "max": round(high, 3),
            "p50": round(self.percentile(0.50), 3),
            "p95": round(self.percentile(0.95), 3),
            "p99": round(self.percentile(0.99), 3),
        }


class EventLog:
    """The shared rolling event stream (one lock, one retention policy).

    Entries are ``(perf_counter_stamp, kind, count, value, session_id)``
    — the shape the gateway's windowed stats aggregate over.  Bounded by
    ``maxlen`` and pruned to ``retention_s`` on read.
    """

    def __init__(self, maxlen: int = 65536,
                 retention_s: float = 3600.0) -> None:
        self.maxlen = maxlen
        self.retention_s = retention_s
        self._events: Deque[Tuple[float, str, int, int, Optional[str]]] = \
            deque(maxlen=maxlen)
        self._lock = threading.Lock()
        # Set by the owning registry: flushes deferred trace aggregation
        # before any read, so windowed views never miss finished queries.
        self._before_read: Optional[Callable[[], None]] = None

    def append(self, kind: str, count: int = 1, value: int = 0,
               session_id: Optional[str] = None) -> None:
        with self._lock:
            self._events.append(
                (time.perf_counter(), kind, count, value, session_id))

    def window(self, seconds: float, session_id: Optional[str] = None,
               ) -> List[Tuple[float, str, int, int, Optional[str]]]:
        """Events within the trailing ``seconds`` (pruning stale ones)."""
        if self._before_read is not None:
            self._before_read()
        horizon = time.perf_counter() - min(seconds, self.retention_s)
        stale = time.perf_counter() - self.retention_s
        with self._lock:
            while self._events and self._events[0][0] < stale:
                self._events.popleft()
            events = [event for event in self._events
                      if event[0] >= horizon]
        if session_id is not None:
            events = [event for event in events if event[4] == session_id]
        return events

    def __len__(self) -> int:
        if self._before_read is not None:
            self._before_read()
        with self._lock:
            return len(self._events)


class MetricsRegistry:
    """Thread-safe named registry of counters, gauges, and histograms.

    ``register_view(name, provider)`` attaches a legacy stats surface
    (``gateway.flat_stats``, ``skill_store.stats``) so callers read it
    *through* the registry — one place owns every number the service
    reports.
    """

    def __init__(self, latency_buckets_ms: Tuple[float, ...] =
                 DEFAULT_LATENCY_BUCKETS_MS) -> None:
        self.latency_buckets_ms = tuple(latency_buckets_ms)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._views: Dict[str, Callable[[], Any]] = {}
        self._lock = threading.Lock()
        # Finished traces queue here (observe_trace) and aggregate lazily
        # on the next metrics *read* — queries pay one short lock instead
        # of contending on half a dozen instrument locks at trace finish.
        self._pending_traces: List[Any] = []
        self._pending_lock = threading.Lock()
        # Span aggregation tables: per-kind latency histograms and
        # per-outcome counters, read lock-free (CPython dict get/set are
        # atomic; a lost race re-resolves to the same registry objects).
        # Per-kind span *counts* are the histograms' counts — snapshot()
        # surfaces them as ``spans.<kind>`` counters.
        self._span_hists: Dict[str, Histogram] = {}
        self._outcome_counters: Dict[str, Counter] = {}
        self._query_tokens = self.counter("query_tokens")
        self.events = EventLog()
        self.events._before_read = self._drain

    def counter(self, name: str) -> Counter:
        self._drain()
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, fn)
            elif fn is not None:
                gauge._fn = fn
        return gauge

    def histogram(self, name: str) -> Histogram:
        self._drain()
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(
                    name, self.latency_buckets_ms)
        return histogram

    def register_view(self, name: str,
                      provider: Callable[[], Any]) -> None:
        with self._lock:
            self._views[name] = provider

    def view(self, name: str) -> Any:
        self._drain()
        with self._lock:
            provider = self._views.get(name)
        if provider is None:
            raise KeyError(f"no registered view named {name!r}")
        return provider()

    def views(self) -> List[str]:
        with self._lock:
            return sorted(self._views)

    def _span_hist(self, kind: str) -> Histogram:
        hist = self._span_hists.get(kind)
        if hist is None:
            hist = self.histogram(f"latency_ms.{kind}")
            self._span_hists[kind] = hist
        return hist

    def observe_trace(self, trace: Any) -> None:
        """Queue a finished trace for aggregation.

        Called once per query by the tracer.  The serving path pays one
        short lock and a list append; the per-span work (histograms,
        outcome counters, the event log entry) runs in :meth:`_drain` on
        the next metrics read, so concurrent queries never contend on
        instrument locks at trace finish.
        """
        with self._pending_lock:
            self._pending_traces.append(trace)
            overflow = len(self._pending_traces) >= PENDING_DRAIN_LIMIT
        if overflow:
            self._drain()

    def _drain(self) -> None:
        """Aggregate every queued trace; called before any read."""
        with self._pending_lock:
            if not self._pending_traces:
                return
            pending, self._pending_traces = self._pending_traces, []
        for trace in pending:
            self._aggregate_trace(trace)

    def _aggregate_trace(self, trace: Any) -> None:
        """One batched pass over a trace's spans: per-kind histogram
        updates (one lock per kind), error/outcome counters, and the
        query's event-log entry."""
        by_kind: Dict[str, List[float]] = {}
        for span in list(trace.spans):
            if span.end_pc is None:
                continue
            durations = by_kind.get(span.kind)
            if durations is None:
                durations = by_kind[span.kind] = []
            durations.append((span.end_pc - span.start_pc) * 1000.0)
            if span.status == "error":
                self.counter(f"span_errors.{span.kind}").inc()
            if span.kind == "model":
                outcome = span.tags.get("outcome", "unknown")
                counter = self._outcome_counters.get(outcome)
                if counter is None:
                    counter = self.counter(f"model_calls.{outcome}")
                    self._outcome_counters[outcome] = counter
                counter.inc()
        for kind, durations in by_kind.items():
            self._span_hist(kind).observe_many(durations)
        tokens = trace.root.tags.get("tokens")
        if not isinstance(tokens, int):
            tokens = 0
        self._query_tokens.inc(tokens)
        self.events.append("query", 1, tokens, session_id=trace.session_id)

    def span_count(self, kind: str) -> int:
        """Spans of ``kind`` observed so far (histogram-backed)."""
        self._drain()
        hist = self._span_hists.get(kind)
        return hist.count if hist is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        self._drain()
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value
                      for name, g in sorted(self._gauges.items())}
            histograms = {name: h.summary()
                          for name, h in sorted(self._histograms.items())}
            # Per-kind span counts ride the latency histograms rather than
            # paying a second Counter on the span-finish path; surface them
            # under the counter naming scheme anyway.
            counters.update({f"spans.{kind}": h.count
                             for kind, h in self._span_hists.items()})
        return {"counters": dict(sorted(counters.items())), "gauges": gauges,
                "histograms": histograms}

    def describe(self) -> str:
        snap = self.snapshot()
        lines = ["metrics:"]
        for name, value in snap["counters"].items():
            lines.append(f"  {name}: {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name}: {value:.3f}")
        for name, summary in snap["histograms"].items():
            lines.append(
                f"  {name}: n={summary['count']}"
                f" p50={summary['p50']}ms p95={summary['p95']}ms"
                f" p99={summary['p99']}ms max={summary['max']}ms")
        return "\n".join(lines)
