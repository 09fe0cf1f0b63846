"""The tracer: per-query trace trees with contextvar propagation.

:class:`Tracer` opens one :class:`~repro.obs.span.Trace` per query; the
root span rides a ``contextvars.ContextVar`` so any code on the query's
call path — engine, optimizer, skill store, gateway — can open child
spans through the module-level :func:`span` context manager without
plumbing a handle through every signature.  When no trace is active (or
tracing is disabled) :func:`span` hands back a shared no-op scope, so
instrumentation costs one contextvar read on the cold path.

Cross-trace attribution: each participating session records its *own*
gateway spans from its own thread (the coalesced follower waits in its
caller's context), so shared work shows up in every trace it served.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.obs.span import _CURRENT_SPAN, NOOP_SPAN, Span, Trace


def current_span() -> Optional[Span]:
    """The innermost live span on this call path, if any."""
    return _CURRENT_SPAN.get()


def current_trace() -> Optional[Trace]:
    active = _CURRENT_SPAN.get()
    if active is None:
        return None
    return active._trace


def span(name: str, kind: str = "stage", **tags: Any):
    """Open a child span of the current context (no-op outside a trace).

    Spans are their own context-manager scopes (entering sets the
    contextvar; exiting finishes, with status ``error`` when the body
    raised) — one object per instrumented site on the hot path.

    Usage::

        with span("codegen", kind="stage", variant=spec.variant) as sp:
            ...
            sp.tag(tokens=cost)
    """
    parent = _CURRENT_SPAN.get()
    if parent is None or not parent.is_recording:
        return NOOP_SPAN
    trace = parent._trace
    if trace is None:
        return NOOP_SPAN
    return trace.begin(name, parent, kind, tags or None)


def record_span(name: str, kind: str = "stage", **tags: Any) -> Any:
    """Record an already-finished (instant) child span — cache hits and
    other outcomes with no meaningful duration of their own."""
    parent = _CURRENT_SPAN.get()
    if parent is None or not parent.is_recording:
        return NOOP_SPAN
    trace = parent._trace
    if trace is None:
        return NOOP_SPAN
    return trace.begin(name, parent, kind, tags or None).finish()


def attach(trace: Optional[Trace]):
    """Re-enter ``trace``'s root context from a foreign thread.

    The engine's parallel compile path and any future async scheduler
    run query work on threads that did not inherit the query's context;
    attaching the trace (carried on ``ExecutionContext``) restores span
    parenting there.  No-op scope when ``trace`` is ``None``.
    """
    if trace is None or trace.finished:
        return NOOP_SPAN
    token = _CURRENT_SPAN.set(trace.root)
    return _AttachScope(token)


class _AttachScope:
    __slots__ = ("_token",)

    def __init__(self, token: Any) -> None:
        self._token = token

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT_SPAN.reset(self._token)
        return False


class _TraceScope:
    """Context manager for a whole query trace."""

    __slots__ = ("_tracer", "_trace", "_token")

    def __init__(self, tracer: "Tracer", trace: Trace) -> None:
        self._tracer = tracer
        self._trace = trace

    def __enter__(self) -> Trace:
        self._token = _CURRENT_SPAN.set(self._trace.root)
        return self._trace

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT_SPAN.reset(self._token)
        self._trace.root.finish("error" if exc_type is not None else None)
        self._tracer._finish_trace(self._trace)
        return False


class _NoopTraceScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NOOP_TRACE_SCOPE = _NoopTraceScope()


class Tracer:
    """Factory for per-query traces.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    every span-finish event; ``on_trace_finish`` receives each completed
    trace (the service wires its sinks — ring buffer, JSONL, slow-query
    log — through it).
    """

    def __init__(self, enabled: bool = True, metrics: Optional[Any] = None,
                 on_trace_finish: Optional[Callable[[Trace], None]] = None,
                 ) -> None:
        self.enabled = enabled
        self.metrics = metrics
        self.on_trace_finish = on_trace_finish
        self._seq = itertools.count(1)  # next() is atomic under the GIL

    def trace(self, name: str, session_id: Optional[str] = None,
              **tags: Any):
        """Open a root trace scope; yields ``None`` when disabled."""
        if not self.enabled:
            return _NOOP_TRACE_SCOPE
        trace = Trace(f"t{next(self._seq):06d}", name,
                      session_id=session_id, tracer=self)
        if tags:
            trace.root.tag(**tags)
        return _TraceScope(self, trace)

    def _finish_trace(self, trace: Trace) -> None:
        # Metrics aggregate here, once per query, in one batched pass —
        # individual span finishes stay at two attribute writes.
        if self.metrics is not None:
            self.metrics.observe_trace(trace)
        if self.on_trace_finish is not None:
            self.on_trace_finish(trace)
