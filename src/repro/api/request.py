"""Structured request/response types for the service layer.

These replace the ad-hoc keyword arguments of the original ``KathDB.query``
facade: a :class:`QueryRequest` carries everything one query needs (the NL
text, the user agent, per-query options), and a :class:`QueryResponse` wraps
the :class:`~repro.executor.result.QueryResult` with service-level metadata
(session id, prepared-cache outcome, token split, wall-clock, optional
explanations) so batch callers never have to touch shared facade state like
``last_result``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.executor.result import QueryResult
from repro.interaction.channel import Transcript
from repro.interaction.user import UserAgent


@dataclass
class QueryOptions:
    """Per-query knobs carried by a :class:`QueryRequest`.

    ``function_versions`` pins generated-function versions (name -> version
    id), the request/response equivalent of ``KathDB.rerun_with_versions``.
    """

    use_prepared: bool = True        # reuse / populate the prepared-query cache
    explain: bool = False            # attach the coarse pipeline explanation
    explain_top: bool = False        # attach the top result tuple's explanation
    max_plan_rounds: int = 3         # plan writer/verifier revision budget
    function_versions: Dict[str, int] = field(default_factory=dict)
    tag: Optional[str] = None        # free-form caller tag, echoed back
    # Scheduling knobs (option-level defaults; the request-level fields of
    # the same names win when both are set).  Absent tenant => the session
    # id; absent priority => the service's default class ("interactive").
    tenant_id: Optional[str] = None
    priority: Optional[str] = None   # "interactive" | "batch" | "background"
    deadline_ms: Optional[float] = None  # relative deadline from submission


@dataclass
class QueryRequest:
    """One natural-language query, addressed to a session or a service."""

    nl_query: str
    user: Optional[UserAgent] = None
    options: QueryOptions = field(default_factory=QueryOptions)
    # A caller-supplied transcript to append this query's interactions to;
    # None means the session's own transcript is used.
    transcript: Optional[Transcript] = None
    # Multi-tenant scheduling: which tenant this request bills/queues under
    # (None = the per-request session id, i.e. pre-scheduler behavior),
    # its priority class, and an optional relative deadline after which the
    # scheduler sheds it pre-dispatch or cancels it mid-flight.
    tenant_id: Optional[str] = None
    priority: Optional[str] = None
    deadline_ms: Optional[float] = None

    def sched_params(self, default_priority: str = "interactive",
                     ) -> "tuple[Optional[str], str, Optional[float]]":
        """Resolve (tenant, priority class, deadline_ms) for the scheduler.

        Request-level fields win over option-level ones; a None tenant means
        "use the session id" (resolved by the service, which mints the id).
        """
        tenant = self.tenant_id or self.options.tenant_id
        priority = self.priority or self.options.priority or default_priority
        deadline = (self.deadline_ms if self.deadline_ms is not None
                    else self.options.deadline_ms)
        return tenant, priority, deadline


@dataclass
class QueryResponse:
    """The service's answer to one :class:`QueryRequest`."""

    request: QueryRequest
    result: Optional[QueryResult]
    session_id: str = ""
    ok: bool = True
    error: Optional[str] = None
    prepared_hit: bool = False       # the plan came from the prepared cache
    prepare_tokens: int = 0          # tokens spent parsing + optimizing (0 on a hit)
    optimize_tokens: int = 0         # the optimizer's share of prepare_tokens
    execute_tokens: int = 0          # tokens spent executing the plan
    wall_clock_s: float = 0.0
    explanation: Optional[str] = None
    top_explanation: Optional[str] = None
    # What the model gateway did for this request (hits/misses/coalesced/
    # semantic_hits/tokens_saved/tokens_charged/batch_tokens_saved); None
    # on a response no session answered to completion (shed, failed,
    # cancelled, or a sharded merge).
    gateway_stats: Optional[Dict[str, int]] = None
    # The answering session's quota position after this request, so callers
    # can back off *before* the gateway raises SessionQuotaExceededError.
    # ``tokens_used`` counts gateway-charged tokens; ``tokens_remaining`` is
    # None when no per-session quota applies.
    tokens_used: int = 0
    tokens_remaining: Optional[int] = None
    quota_exhausted: bool = False
    # Skill-store counters (exact/near hits, misses, revalidations, demotions)
    # at the end of this request; None when the service has no skill store.
    skill_store_stats: Optional[Dict[str, int]] = None
    # End-to-end wall time the service spent answering this request, measured
    # with perf_counter around the whole query (trace root span included).
    latency_ms: float = 0.0
    # The trace this request produced (fetch the full tree via
    # ``service.trace(trace_id)``); None when tracing is disabled.
    trace_id: Optional[str] = None
    # Scheduling metadata: time spent queued before dispatch, the priority
    # class the request ran under, why it was shed ("backpressure" /
    # "deadline" / "shutdown"; None when it ran), and a small per-tenant
    # scheduler snapshot (queue depth, sheds, expiries) for backoff logic.
    queue_ms: float = 0.0
    sched_class: Optional[str] = None
    shed_reason: Optional[str] = None
    scheduler_stats: Optional[Dict[str, Any]] = None
    # The finished Trace backing ``trace_spans``, set by ``Session.query``
    # after the trace scope closes (so durations are final).
    _trace: Optional[Any] = None

    @property
    def trace_spans(self) -> Optional[List[Dict[str, Any]]]:
        """Flat span summary of this query's trace; None when untraced.

        Summarized lazily on first access — building ~60 span dicts per
        query would otherwise tax every caller that never reads them.
        """
        if self._trace is None:
            return None
        return self._trace.summary()

    @property
    def total_tokens(self) -> int:
        """Tokens this request actually cost (prepare + execute)."""
        return self.prepare_tokens + self.execute_tokens

    def raise_for_error(self) -> "QueryResponse":
        """Re-raise the captured failure, if any; returns self otherwise."""
        if not self.ok:
            raise RuntimeError(f"query {self.request.nl_query!r} failed: {self.error}")
        return self

    def describe(self) -> str:
        """One-line summary used by the CLI batch mode."""
        if not self.ok:
            suffix = f" [{self.trace_id}]" if self.trace_id else ""
            return f"[{self.session_id}] ERROR: {self.error}{suffix}"
        rows = len(self.result.final_table) if self.result is not None else 0
        hit = " (prepared)" if self.prepared_hit else ""
        saved = ""
        if self.gateway_stats and self.gateway_stats.get("tokens_saved"):
            saved = f", {self.gateway_stats['tokens_saved']} tokens saved by gateway"
        latency = self.latency_ms or self.wall_clock_s * 1000
        trace = f" [{self.trace_id}]" if self.trace_id else ""
        return (f"[{self.session_id}] {rows} rows, {self.total_tokens} tokens, "
                f"{latency:.1f} ms{hit}{saved}{trace}")
