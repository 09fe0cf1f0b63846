"""The model gateway: one front door for all foundation-model traffic.

Every model call a :class:`~repro.api.service.KathDBService` makes — from
any session, the view populator, or the CLI batch path — funnels through one
:class:`ModelGateway`; the :class:`~repro.core.kathdb.KathDB` facade's
default session funnels through a private :meth:`ModelGateway.pass_through`
one.  The gateway stacks four tiers in front of the
simulated model suite, cheapest first:

1. **exact cache** — identical requests answered from a shared LRU
   (:mod:`repro.gateway.cache`); hits cost the hitting session nothing;
2. **semantic near-match** — opt-in cosine-keyed reuse for the
   embeddings-backed predicates (:mod:`repro.gateway.semantic`);
3. **coalescing** — identical requests *currently executing* share one
   execution (:mod:`repro.gateway.coalesce`);
4. **admission + batching** — each chunk of misses takes a global
   concurrency slot; a chunk of two or more runs as one batched invocation
   (:mod:`repro.gateway.admission`, :mod:`repro.gateway.batching`).

The stack is written once, in the funnel
:meth:`repro.gateway.vectorized.GatewayBatchClient.invoke`; a serial call
(:meth:`ModelGateway.invoke`) is a one-call vector through it.

Sessions talk to the gateway through a :class:`SessionGatewayClient`, which
carries the session identity (for quota enforcement and per-session
counters) and is what the model proxies in :mod:`repro.gateway.proxy` hold.
Its :meth:`~SessionGatewayClient.invoke_many` is where a routed suite's
:meth:`~repro.models.base.ModelSuite.call_many` enters the funnel.

Token accounting is strictly *pay-for-your-misses*: an executing call
charges the executing session's own cost meter (the models already do this);
hits, near-hits, and coalesced followers charge nobody and are tallied as
``tokens_saved``.  Batched misses pay a *discounted* price — each
member's fair share of one batched invocation (shared setup overhead + its
marginal content) instead of the full serial cost — and the discount is
tallied as ``batch_tokens_saved``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.gateway.admission import AdmissionController
from repro.gateway.batching import MicroBatcher
from repro.gateway.cache import ExactResultCache
from repro.gateway.coalesce import RequestCoalescer
# Re-exported: benchmarks/e2e re-binds every module's from-import of the
# fingerprint functions when it installs its probes, and checks this one.
from repro.gateway.fingerprint import canonicalize  # noqa: F401
from repro.gateway.proxy import GatewayModelProxy
from repro.gateway.semantic import SemanticNearCache
from repro.gateway.vectorized import GatewayBatchClient
from repro.models.base import MODEL_KINDS
from repro.obs.metrics import MetricsRegistry


@dataclass
class GatewayConfig:
    """Tuning knobs for one gateway instance (service-owned)."""

    enable_cache: bool = True
    cache_entries: int = 4096
    cache_token_budget: Optional[int] = None
    enable_coalescing: bool = True
    enable_batching: bool = True
    max_batch: int = 32
    enable_semantic: bool = False
    semantic_threshold: float = 0.97
    semantic_entries: int = 512
    # Lookup structure for the semantic tier: "ann" (multi-probe LSH over
    # the signature vectors, sublinear) or "linear" (exhaustive scan).
    semantic_mode: str = "ann"
    semantic_planes: int = 16
    semantic_probes: int = 8
    max_concurrency: int = 16
    session_token_quota: Optional[int] = None
    # LRU bound on tracked per-session client entries (stats/ledger);
    # throwaway per-request sessions must not grow the registry forever.
    # Eviction only drops the stats/ledger entry — live sessions hold
    # their client through their model proxies regardless.
    max_tracked_sessions: int = 4096


@dataclass
class SessionCounters:
    """Per-session view of what the gateway did for one caller."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    semantic_hits: int = 0
    tokens_saved: int = 0
    tokens_charged: int = 0
    # Tokens batching discounted off this session's own misses (the
    # serial price minus the batched share it actually paid).
    batch_tokens_saved: int = 0
    # Batched invocations this session issued itself: one per executed
    # chunk of two or more members, as BatchStats counts them.  A
    # one-member chunk runs as a serial call and is not counted here.
    batch_calls: int = 0
    # Sizes of those batched invocations, in issue order.  Not part of
    # _KEYS (lists don't delta); the engine snapshots the length instead.
    batch_sizes: List[int] = field(default_factory=list)

    _KEYS = ("hits", "misses", "coalesced", "semantic_hits",
             "tokens_saved", "tokens_charged", "batch_tokens_saved",
             "batch_calls")

    def as_dict(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in self._KEYS}

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(getattr(self, key) for key in self._KEYS)

    def delta(self, marker: Tuple[int, ...]) -> Dict[str, int]:
        now = self.snapshot()
        return {k: now[i] - marker[i] for i, k in enumerate(self._KEYS)}


class SessionGatewayClient:
    """One session's handle on the shared gateway.

    ``quota_exempt`` marks administrative callers (corpus population) that
    the per-session token quota must not throttle.  ``tenant_id`` is the
    quota-ledger key this client's spend charges against; it defaults to the
    session id, so callers that never name a tenant keep one ledger entry
    per session, while named tenants share one ledger across all their
    sessions (a tenant cannot dodge its quota with throwaway sessions).
    """

    def __init__(self, gateway: "ModelGateway", session_id: str,
                 quota_exempt: bool = False, tenant_id: Optional[str] = None):
        self.gateway = gateway
        self.session_id = session_id
        self.tenant_id = tenant_id or session_id
        self.quota_exempt = quota_exempt
        self.counters = SessionCounters()

    def invoke(self, model: Any, method: str, args: Tuple[Any, ...],
               kwargs: Optional[Dict[str, Any]] = None, *,
               semantic_terms_of: Optional[Callable[..., Any]] = None) -> Any:
        return self.gateway.invoke(self, model, method, args, kwargs or {},
                                   semantic_terms_of=semantic_terms_of)

    def invoke_many(self, model: Any, method: str,
                    calls: Sequence[Tuple[Tuple[Any, ...], Dict[str, Any]]], *,
                    semantic_terms_of: Optional[Callable[..., Any]] = None
                    ) -> List[Any]:
        """A vector of calls through the funnel (:class:`GatewayBatchClient`)."""
        return GatewayBatchClient(self).invoke(model, method, calls,
                                               semantic_terms_of=semantic_terms_of)

    def spent(self) -> int:
        """Tokens this client's tenant has been charged through the gateway."""
        return self.gateway.admission.spent(self.tenant_id)

    def quota_state(self) -> Dict[str, Any]:
        """This session's live quota position, for pre-emptive backoff.

        ``tokens_remaining`` is None when no quota applies (unconfigured, or
        a quota-exempt internal client); ``quota_exhausted`` True means the
        next miss will be refused with ``SessionQuotaExceededError``.
        """
        # Read the admission controller's copy — the authority precheck()
        # enforces against — not the config snapshot it was built from.
        quota = (None if self.quota_exempt
                 else self.gateway.admission.session_token_quota)
        used = self.spent()
        return {
            "tokens_used": used,
            "tokens_remaining": max(0, quota - used) if quota is not None else None,
            "quota_exhausted": quota is not None and used >= quota,
        }


class ModelGateway:
    """Shared semantic cache + coalescing + batching + admission."""

    def __init__(self, config: Optional[GatewayConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 store: Optional[Any] = None):
        self.config = config or GatewayConfig()
        # Optional durable cache store (repro.gateway.persist): the exact
        # tier seeds from it and writes non-volatile entries through; the
        # semantic tier persists (group, signature, result, cost) and
        # rebuilds its LSH index from the signatures on startup.
        self.store = store
        # The service passes its shared registry so gateway telemetry and
        # query traces land in one store; standalone gateways own a private
        # one.  ``self.events`` — the rolling stream behind
        # :meth:`windowed_stats` — is the registry's EventLog (one lock,
        # one retention policy, perf_counter stamps).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = self.metrics.events
        self.cache = ExactResultCache(capacity=self.config.cache_entries,
                                      token_budget=self.config.cache_token_budget,
                                      store=store)
        self.coalescer = RequestCoalescer()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            session_token_quota=self.config.session_token_quota)
        self.batcher = MicroBatcher(self.admission,
                                    max_batch=self.config.max_batch)
        self.semantic = SemanticNearCache(threshold=self.config.semantic_threshold,
                                          capacity=self.config.semantic_entries,
                                          mode=self.config.semantic_mode,
                                          planes=self.config.semantic_planes,
                                          probes=self.config.semantic_probes,
                                          store=store)
        if store is not None and self.config.enable_semantic:
            self.semantic.restore_persisted()
        self._clients_lock = threading.Lock()
        self._clients: "OrderedDict[str, SessionGatewayClient]" = OrderedDict()

    @classmethod
    def pass_through(cls) -> "ModelGateway":
        """A gateway that only meters: every call executes and is billed.

        The exact, semantic and coalescing tiers are off and batching is
        on, so a vector of calls is priced exactly as one batched invocation
        per chunk, and a serial call exactly as the model's own call.  It
        keeps its own :class:`~repro.obs.metrics.MetricsRegistry`, so its
        traffic never shows in a service's ``gateway.*`` stats.  The
        :class:`~repro.core.kathdb.KathDB` facade routes its default
        session through one; a standalone suite is routed the same way
        (``suite.routed(ModelGateway.pass_through(), session_id)``).
        """
        return cls(GatewayConfig(enable_cache=False, enable_coalescing=False,
                                 enable_semantic=False))

    #: Internal (quota-exempt) client ids live under this prefix; caller
    #: session ids may not use it, so a session named "loader" can never
    #: alias the populator's exemption.
    RESERVED_PREFIX = "#"
    # -- clients and routing --------------------------------------------------------
    def client(self, session_id: str,
               tenant_id: Optional[str] = None) -> SessionGatewayClient:
        """The (one) client for a caller session id, created on first use.

        ``tenant_id`` sets the quota-ledger key on first creation (default:
        the session id).
        """
        if session_id.startswith(self.RESERVED_PREFIX):
            raise ValueError(f"session ids must not start with "
                             f"{self.RESERVED_PREFIX!r} (reserved for internal "
                             f"gateway clients): {session_id!r}")
        return self._client(session_id, quota_exempt=False, tenant_id=tenant_id)

    def internal_client(self, name: str) -> SessionGatewayClient:
        """A quota-exempt client for service-internal traffic (population)."""
        return self._client(self.RESERVED_PREFIX + name, quota_exempt=True)

    def _client(self, session_id: str, quota_exempt: bool,
                tenant_id: Optional[str] = None) -> SessionGatewayClient:
        with self._clients_lock:
            existing = self._clients.get(session_id)
            if existing is None:
                existing = SessionGatewayClient(self, session_id,
                                                quota_exempt=quota_exempt,
                                                tenant_id=tenant_id)
                self._clients[session_id] = existing
                while len(self._clients) > self.config.max_tracked_sessions:
                    self._clients.popitem(last=False)
            else:
                if tenant_id is not None and existing.tenant_id != tenant_id:
                    # A cached client keeps the binding it was created with;
                    # an explicit tenant re-binds it so the quota ledger
                    # follows the caller's declaration, not creation order.
                    existing.tenant_id = tenant_id
                self._clients.move_to_end(session_id)
            return existing

    def route(self, suite, session_id: str, quota_exempt: bool = False,
              tenant_id: Optional[str] = None):
        """A copy of ``suite`` whose models call through this gateway.

        The copy shares the suite's cost meter and lexicon; each model is
        wrapped in a :class:`~repro.gateway.proxy.GatewayModelProxy`.
        ``quota_exempt`` is for service-internal traffic and registers the
        client under the reserved internal namespace.  ``tenant_id`` keys
        the client's quota ledger (default: the session id).  Routing an
        already-routed suite returns it as is.
        """
        if suite.gateway_client is not None:
            return suite
        client = (self.internal_client(session_id) if quota_exempt
                  else self.client(session_id, tenant_id=tenant_id))
        return dataclasses.replace(
            suite, gateway_client=client,
            **{kind: GatewayModelProxy(getattr(suite, kind), client)
               for kind in MODEL_KINDS})

    # -- the funnel -----------------------------------------------------------------
    def invoke(self, client: SessionGatewayClient, model: Any, method: str,
               args: Tuple[Any, ...], kwargs: Dict[str, Any], *,
               semantic_terms_of: Optional[Callable[..., Any]] = None) -> Any:
        """Answer one model call: a one-call vector through the funnel.

        ``semantic_terms_of(args, kwargs)`` gives the (query_terms,
        candidate_terms) pair of a predicate eligible for the near-match
        tier; None otherwise.

        The funnel (:meth:`GatewayBatchClient.invoke`) records one
        ``model``-kind span for the call on the *calling* session's active
        trace, tagged with the tier that answered it — exact-hit /
        semantic-hit / coalesced-follower / batched-chunk / executed — so a
        coalesced execution shows up in every participating session's trace.
        """
        return GatewayBatchClient(client).invoke(
            model, method, [(args, kwargs)],
            semantic_terms_of=semantic_terms_of)[0]

    # -- observability --------------------------------------------------------------
    def note_event(self, kind: str, requests: int, tokens: int,
                   session_id: Optional[str] = None) -> None:
        """Append one event to the rolling log behind :meth:`windowed_stats`.

        ``kind`` is a :class:`SessionCounters` counter name (``hits``,
        ``misses``, ``coalesced``, ``semantic_hits``), ``batch_saved``, or
        ``semantic_probes``; ``tokens`` is the saved amount for hit-like
        kinds and the charged amount for misses.  ``session_id`` tags the
        event with the caller so :meth:`windowed_stats` can answer for one
        session as well as service-wide.

        Events land in the shared :class:`~repro.obs.metrics.EventLog`
        (one lock, one retention policy, ``perf_counter`` stamps) and are
        mirrored into cumulative registry counters under ``gateway.*``.
        """
        self.events.append(kind, count=requests, value=tokens,
                           session_id=session_id)
        self.metrics.counter(f"gateway.{kind}").inc(requests)
        if tokens:
            self.metrics.counter(f"gateway.{kind}_tokens").inc(tokens)

    def windowed_stats(self, seconds: float = 60.0,
                       session_id: Optional[str] = None) -> Dict[str, Any]:
        """Rolling-window counters and rates over the last ``seconds``.

        The cumulative :meth:`stats`/:meth:`flat_stats` counters answer
        "what has this service done since it started"; this answers "what is
        it doing *right now*" — the view a long-running service's operators
        watch.  Events older than the window (or beyond the bounded event
        log) are excluded.  With ``session_id`` the window is scoped to the
        events that session's calls produced (the multi-tenant quota-tuning
        view); the default is service-wide.
        """
        seconds = max(0.0, float(seconds))
        totals = {"hits": 0, "misses": 0, "coalesced": 0, "semantic_hits": 0}
        tokens_saved = tokens_charged = batch_tokens_saved = 0
        semantic_probes = 0
        for _stamp, kind, requests, tokens, _session in \
                self.events.window(seconds, session_id=session_id):
            if kind == "misses":
                totals["misses"] += requests
                tokens_charged += tokens
            elif kind == "batch_saved":
                batch_tokens_saved += tokens
            elif kind == "semantic_probes":
                semantic_probes += requests
            elif kind in totals:
                totals[kind] += requests
                tokens_saved += tokens
        request_count = sum(totals.values())
        rate = 1.0 / seconds if seconds > 0 else 0.0
        payload: Dict[str, Any] = {
            "window_s": seconds,
            "requests": request_count,
            **totals,
            "tokens_saved": tokens_saved,
            "tokens_charged": tokens_charged,
            "batch_tokens_saved": batch_tokens_saved,
            "semantic_probes": semantic_probes,
            "requests_per_s": round(request_count * rate, 3),
            "tokens_charged_per_s": round(tokens_charged * rate, 3),
        }
        if session_id is not None:
            payload["session_id"] = session_id
        return payload

    def session_counters(self, session_id: str) -> Optional[Dict[str, int]]:
        """One tracked session's cumulative counters, or None if unknown.

        Read-only: unlike :meth:`client` this never mints (or LRU-bumps) a
        client entry, so observers can poll arbitrary ids without growing
        the registry.
        """
        with self._clients_lock:
            client = self._clients.get(session_id)
            return None if client is None else client.counters.as_dict()

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Nested counters from every tier plus the per-session rollup."""
        with self._clients_lock:
            sessions = {sid: c.counters.as_dict() for sid, c in self._clients.items()}
        payload: Dict[str, Dict[str, Any]] = {
            "cache": self.cache.as_dict(),
            "coalescing": self.coalescer.stats.as_dict(),
            "batching": self.batcher.stats.as_dict(),
            "semantic": self.semantic.as_dict(),
            "admission": self.admission.as_dict(),
            "sessions": sessions,
        }
        if self.store is not None:
            payload["persistence"] = self.store.stats.as_dict()
        return payload

    def flat_stats(self) -> Dict[str, Any]:
        """The headline counters as one flat dict (CLI / response surface)."""
        stats = self.stats()
        return {
            "cache_hits": stats["cache"]["hits"],
            "cache_misses": stats["cache"]["misses"],
            "cache_entries": stats["cache"]["entries"],
            "evictions": stats["cache"]["evictions"],
            "coalesced": stats["coalescing"]["coalesced"],
            "batches": stats["batching"]["batches"],
            "batched_calls": stats["batching"]["batched_calls"],
            "batch_token_savings": stats["batching"]["token_savings"],
            "semantic_hits": stats["semantic"]["near_hits"],
            "semantic_entries": stats["semantic"]["entries"],
            "semantic_mode": stats["semantic"]["mode"],
            "semantic_memo": stats["semantic"]["semantic_memo"],
            # ANN health: how spread the signature index is and how much
            # probing lookups are doing (occupancy skew => raise planes,
            # recall misses => raise probes).
            "ann_buckets": stats["semantic"]["ann"]["buckets"],
            "ann_max_bucket": stats["semantic"]["ann"]["max_bucket"],
            "ann_probes": stats["semantic"]["ann"]["probes"],
            # Avoided-call savings only, so this reconciles with the sum of
            # per-session tokens_saved; the batching *discount* on executed
            # calls is its own key (batch_token_savings), mirroring the
            # per-session batch_tokens_saved counter.
            "tokens_saved": (stats["cache"]["tokens_saved"]
                             + stats["coalescing"]["tokens_saved"]
                             + stats["semantic"]["tokens_saved"]),
            "peak_concurrency": stats["admission"]["peak_concurrency"],
            "quota_rejections": stats["admission"]["rejections"],
        }

    def describe(self) -> str:
        """A short human-readable summary for operators."""
        flat = self.flat_stats()
        return ("model gateway: "
                + ", ".join(f"{k}={v}" for k, v in flat.items()))

    def clear(self, volatile_only: bool = False) -> int:
        """Drop cached results; counters are kept.  Returns entries dropped.

        ``volatile_only=True`` is the corpus-reload mode: only exact-cache
        entries keyed on a URI-addressed argument (poster images — URIs
        collide across corpora) are dropped, while purely content-keyed
        entries (text payloads hash their own content) survive.  The
        semantic tier is dropped — entries *and* their LSH index slots, in
        lockstep — on every clear: now that the tier is on by default, its
        candidate term lists (extracted from corpus rows) must not outlive
        the corpus they were measured against, and a stale index entry
        pointing at a dropped answer would be a correctness hole.

        With a persistent store attached, a full clear wipes the store too
        (clear-through), while the corpus-reload clear rebuilds the
        semantic tier from its persisted entries afterwards — a persisted
        answer carries its exact term sets in its signature, so unlike the
        in-memory candidate lists it cannot go stale across corpora.
        """
        dropped = self.cache.clear(volatile_only=volatile_only)
        self.semantic.clear()
        if self.store is not None:
            if volatile_only:
                if self.config.enable_semantic:
                    self.semantic.restore_persisted()
            else:
                self.store.clear()
        return dropped

    def close(self) -> None:
        """Flush and release the persistent cache store, if any (idempotent).

        Backends write synchronously (atomic file replace / per-put SQLite
        commit), so close only has to release resources — but a SQLite
        connection left open on shutdown is exactly the kind of leak a
        long-running sharded deployment cannot afford.
        """
        if self.store is not None:
            self.store.close()
