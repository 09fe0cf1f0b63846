"""The request/response service layer: shared core + concurrent sessions.

:class:`KathDBService` owns the expensive shared state exactly once — the
simulated model suite, the populated catalog with its multimodal views, the
lineage of the loaded corpus, the versioned function registry, and the
prepared-query cache — and hands out cheap isolated :class:`Session` objects.
Queries are submitted as :class:`QueryRequest` values and answered with
:class:`QueryResponse` values, either one at a time (:meth:`query`),
fire-and-forget (:meth:`submit` / :meth:`gather`), or as a batch
(:meth:`query_batch`) — all admitted through the fair-share scheduler of
the shared :class:`~repro.api.frontend.RequestFrontend`.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.frontend import RequestFrontend
from repro.api.prepared import PreparedQueryCache
from repro.api.request import QueryRequest, QueryResponse
from repro.api.session import Session
from repro.core.config import KathDBConfig
from repro.errors import QueryCancelledError
from repro.data.mmqa import MovieCorpus
from repro.datamodel.lineage import LineageStore
from repro.datamodel.views import PopulationReport, ViewPopulator
from repro.fao.registry import FunctionRegistry
from repro.gateway.gateway import GatewayConfig, ModelGateway
from repro.interaction.user import UserAgent
from repro.models.base import ModelSuite
from repro.models.cost import CostMeter
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import (JsonlTraceSink, SlowQueryLog, TraceRingBuffer,
                             write_chrome_trace)
from repro.obs.span import Trace
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import MIN_ACCURACY
from repro.optimizer.profile_cache import ProfileCache
from repro.relational.catalog import Catalog
from repro.skills.backends import FileBackend, SkillBackend, backend_from_spec
from repro.skills.store import SkillStore


class KathDBService(RequestFrontend):
    """A multi-session KathDB server core."""

    def __init__(self, config: Optional[KathDBConfig] = None,
                 max_workers: Optional[int] = None):
        self.config = config or KathDBConfig()
        # Observability: one MetricsRegistry is the single backing store for
        # every stats surface (the gateway's event stream and counters, the
        # skill store's counters, the registered gateway/skills/prepared
        # views), and one Tracer feeds it span-finish events.  Finished
        # traces flow through _trace_finished into the ring buffer, the
        # optional JSONL sink, and the slow-query log.
        self.metrics = MetricsRegistry()
        self._trace_buffer = TraceRingBuffer()
        self._trace_sink = (JsonlTraceSink(self.config.trace_jsonl_path)
                            if self.config.trace_jsonl_path is not None
                            else None)
        self.slow_queries = SlowQueryLog(threshold_ms=self.config.slow_query_ms)
        self.tracer = Tracer(enabled=self.config.enable_tracing,
                             metrics=self.metrics,
                             on_trace_finish=self._trace_finished)
        meter = CostMeter(latency_scale=self.config.simulate_model_latency)
        self.models = ModelSuite.create(seed=self.config.seed,
                                        vlm_error_rate=self.config.vlm_error_rate,
                                        cost_meter=meter)
        self.catalog = Catalog()
        self.lineage = LineageStore(level=self.config.lineage_level)
        # The durable skill store (when configured) is the single persistence
        # path for generated code: the registry mirrors sources through its
        # file backend, and the profile cache persists through the same
        # backend.  A ``workspace`` mounts a file backend at that path (the
        # legacy layout) instead, without enabling retrieval.
        self.skill_store = self._build_skill_store()
        source_sink: Optional[SkillBackend]
        if self.config.workspace is not None:
            source_sink = FileBackend(self.config.workspace)
        elif self.skill_store is not None:
            source_sink = self.skill_store.source_sink()
        else:
            source_sink = None
        self.registry = FunctionRegistry(source_sink=source_sink)
        # The model gateway fronts all foundation-model traffic from service
        # sessions (and corpus population): shared exact/semantic caching,
        # in-flight coalescing, batching, and admission control.
        self.gateway_store = self._build_gateway_store()
        self.gateway = ModelGateway(self.config.gateway_config(),
                                    metrics=self.metrics, store=self.gateway_store)
        self.populator = ViewPopulator(
            self.gateway.route(self.models, "loader", quota_exempt=True),
            self.catalog, self.lineage,
            batch_size=GatewayConfig.max_batch)
        self.profile_cache = (
            ProfileCache(backend=(self.skill_store.backend
                                  if self.skill_store is not None else None))
            if self.config.enable_profile_cache else None)
        self.prepared: Optional[PreparedQueryCache] = (
            PreparedQueryCache(capacity=self.config.prepared_cache_size)
            if self.config.enable_prepared_cache else None)
        self.max_workers = max_workers or self.config.service_max_workers
        self.population_report: Optional[PopulationReport] = None
        self._close_lock = threading.Lock()
        self._closed = False
        # Every request is admitted through the fair-share scheduler with
        # one worker slot per service worker.
        super().__init__(self.config, self.metrics, self.max_workers)
        # The legacy stats surfaces stay API-compatible as registry views:
        # gateway_stats()/skill_stats() read *through* the registry, so one
        # store owns every number the service reports.
        self.metrics.register_view("gateway", self.gateway.flat_stats)
        if self.skill_store is not None:
            self.metrics.register_view("skills", self.skill_store.stats)
        if self.prepared is not None:
            self.metrics.register_view("prepared", self.prepared.stats.as_dict)
        if self.gateway_store is not None:
            self.metrics.register_view("gateway_cache_store",
                                       self.gateway_store.stats.as_dict)

    def _build_gateway_store(self):
        """The durable gateway cache store these config knobs imply, or None.

        ``"memory"`` means no cross-process durability is wanted — the
        in-process :class:`~repro.gateway.cache.ExactResultCache` already
        is the memory tier, so wrapping a second in-memory copy would only
        double every entry.
        """
        config = self.config
        if config.gateway_cache_backend == "memory" or not config.enable_model_cache:
            return None
        from repro.gateway.persist import GatewayCacheStore
        backend = backend_from_spec(config.gateway_cache_backend,
                                    config.gateway_cache_path)
        return GatewayCacheStore(backend)

    def _build_skill_store(self) -> Optional[SkillStore]:
        """The durable skill store these config knobs imply, or None."""
        config = self.config
        if not config.enable_skill_store and config.skill_store_path is None:
            return None
        backend = backend_from_spec(config.skill_store_backend, config.skill_store_path)
        provenance = {
            "seed": config.seed,
            "model_suite": type(self.models.llm).__name__,
            "explore_variants": config.explore_variants,
            "min_accuracy": MIN_ACCURACY,
            "max_repair_rounds": config.max_repair_rounds,
            "vectorized_batch_size": GatewayConfig.max_batch,
        }
        return SkillStore(backend,
                          retrieval_threshold=config.skill_retrieval_threshold,
                          provenance=provenance,
                          metrics=self.metrics)

    # -- data loading ------------------------------------------------------------------
    def load_corpus(self, corpus: MovieCorpus, populate_views: bool = True) -> PopulationReport:
        """Load a multimodal corpus into the shared catalog (once, up front).

        This is the only phase that writes to the shared catalog and lineage
        store; afterwards both are treated as read-only by every session.
        """
        # Swapping corpora invalidates the *URI-keyed* slice of the gateway
        # cache: image URIs collide across corpora — two corpora both contain
        # file://posters/clean_and_sober.png with different pixels — so
        # entries whose request embeds a URI are dropped before populating.
        # Purely text-keyed entries (NER extraction, embeddings, LLM calls)
        # hash their own content and stay valid, so a reload that shares
        # documents with the previous corpus re-uses their results.
        # (Prepared plans are cleared after population, below, once the new
        # catalog fingerprint is final.)
        self.gateway.clear(volatile_only=True)
        self.population_report = self.populator.load_corpus(corpus,
                                                            populate_views=populate_views)
        self.invalidate_prepared()
        return self.population_report

    def catalog_fingerprint(self) -> str:
        """The current digest of the shared catalog's registered contents.

        Computed fresh on every call (it is a cheap walk over table names,
        kinds, row counts, and column names) so that even direct catalog
        mutations — ``db.catalog.register(...)`` from legacy callers —
        immediately shift every prepared-query key instead of serving plans
        compiled against a stale schema.
        """
        return self.catalog.fingerprint()

    def invalidate_prepared(self) -> None:
        """Drop every cached plan (after the catalog contents changed)."""
        if self.prepared is not None:
            self.prepared.clear()

    # -- sessions ----------------------------------------------------------------------
    def session(self, user: Optional[UserAgent] = None,
                name: Optional[str] = None,
                tenant_id: Optional[str] = None) -> Session:
        """A fresh isolated session: forked models, scoped lineage, own transcript."""
        session_id = name or f"s{next(self._session_ids)}"
        return Session(self, session_id, user=user, tenant_id=tenant_id)

    # -- querying ----------------------------------------------------------------------
    def _execute(self, request: QueryRequest, session_name: str,
                 tenant: str) -> QueryResponse:
        """Execute one request in a fresh session, capturing failures."""
        session = self.session(user=request.user, name=session_name,
                               tenant_id=tenant)
        start_pc = time.perf_counter()
        try:
            return session.query(request)
        except QueryCancelledError as cancelled:
            # Cooperative cancellation (deadline mid-flight): the partial
            # work was abandoned at an operator/gateway boundary; the
            # session was throwaway, so no shared state is left dirty.
            quota = session.quota_state()
            return QueryResponse(
                request=request, result=None, session_id=session.id,
                ok=False, error=f"query cancelled: {cancelled.reason}",
                shed_reason=cancelled.reason,
                tokens_used=quota["tokens_used"],
                tokens_remaining=quota["tokens_remaining"],
                quota_exhausted=bool(quota["quota_exhausted"]),
                latency_ms=(time.perf_counter() - start_pc) * 1000.0,
                trace_id=session.last_trace_id)
        except Exception as error:  # noqa: BLE001 - service boundary
            quota = session.quota_state()
            return QueryResponse(
                request=request, result=None, session_id=session.id,
                ok=False, error=f"{type(error).__name__}: {error}",
                tokens_used=quota["tokens_used"],
                tokens_remaining=quota["tokens_remaining"],
                quota_exhausted=bool(quota["quota_exhausted"]),
                latency_ms=(time.perf_counter() - start_pc) * 1000.0,
                trace_id=session.last_trace_id)

    def _trace_finished(self, trace: Trace) -> None:
        """Tracer hook: fan a finished trace out to every sink.

        Sinks must never break a query — IO failures are tallied on the
        registry and dropped.
        """
        self._trace_buffer.add(trace)
        self.slow_queries.observe(trace)
        if self._trace_sink is not None:
            try:
                self._trace_sink.write(trace)
            except OSError:
                self.metrics.counter("trace_sink_errors").inc()

    # -- lifecycle / introspection -------------------------------------------------------
    def shutdown(self) -> None:
        """Drain the scheduler and flush/close persistent backends.

        Idempotent: the scheduler drain and the backend closes — the
        gateway's durable cache store, the skill store's backend, the JSONL
        trace sink — happen exactly once.  File and SQLite-backed runs must
        never lose buffered writes to a double ``shutdown()`` or a ``with``
        block that also calls it.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.shutdown(wait=True)
        self.gateway.close()
        if self.skill_store is not None:
            self.skill_store.close()
        if self._trace_sink is not None:
            try:
                self._trace_sink.close()
            except OSError:
                self.metrics.counter("trace_sink_errors").inc()

    def __enter__(self) -> "KathDBService":
        return self

    def __exit__(self, *exc_info) -> None:
        """Idempotent close: re-entering/exiting never double-releases."""
        self.shutdown()

    def total_tokens(self) -> int:
        """Tokens spent by the shared suite (corpus population, default stack)."""
        return self.models.cost_meter.total_tokens

    def prepared_stats(self) -> Dict[str, int]:
        """Prepared-query cache counters (empty when the cache is disabled)."""
        return self.prepared.stats.as_dict() if self.prepared is not None else {}

    def skill_stats(self) -> Optional[Dict[str, int]]:
        """Skill-store hit/miss/revalidation counters (None when disabled).

        A view over the shared :class:`MetricsRegistry` (the store's
        counters live there); the return shape is unchanged.
        """
        if self.skill_store is None:
            return None
        return self.metrics.view("skills")

    # -- observability ------------------------------------------------------------------
    def traces(self, limit: Optional[int] = None) -> List[Trace]:
        """Recently finished query traces, oldest first."""
        return self._trace_buffer.list(limit)

    def trace(self, trace_id: str) -> Optional[Trace]:
        """One buffered trace by id (``QueryResponse.trace_id``), or None."""
        return self._trace_buffer.get(trace_id)

    def export_chrome_trace(self, path: Union[str, Path],
                            trace_ids: Optional[Sequence[str]] = None) -> int:
        """Write buffered traces as Chrome ``trace_event`` JSON.

        The file opens directly in ``chrome://tracing`` or Perfetto.
        ``trace_ids`` selects a subset (unknown ids are skipped); the
        default exports the whole ring buffer.  Returns the event count.
        """
        if trace_ids is None:
            traces = self.traces()
        else:
            traces = [t for t in (self.trace(tid) for tid in trace_ids)
                      if t is not None]
        return write_chrome_trace(path, traces)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Every counter, gauge, and histogram summary in the registry."""
        return self.metrics.snapshot()

    def gateway_stats(self, window_s: Optional[float] = None,
                      session_id: Optional[str] = None) -> Dict[str, object]:
        """Headline model-gateway counters.

        ``window_s`` additionally attaches a ``windowed`` entry with the
        rolling counters and rates over the last that-many seconds — the
        live-traffic view for long-running services, alongside the
        cumulative headline numbers.  ``session_id`` scopes the answer to
        one session: the cumulative block becomes that session's gateway
        counters and the windowed block (when requested) covers only the
        events its calls produced — the per-tenant view for quota tuning.
        """
        stats: Dict[str, object]
        if session_id is not None:
            stats = dict(self.gateway.session_counters(session_id) or {})
            stats["session_id"] = session_id
            if window_s is not None:
                stats["windowed"] = self.gateway.windowed_stats(
                    window_s, session_id=session_id)
            return stats
        # The headline block is the registered "gateway" registry view —
        # same dict flat_stats() always returned, read through the registry.
        stats = dict(self.metrics.view("gateway"))
        if window_s is not None:
            stats["windowed"] = self.gateway.windowed_stats(window_s)
        return stats

    def describe(self) -> str:
        """A short status summary for operators."""
        lines = [f"KathDBService: {len(self.catalog)} catalog tables, "
                 f"{len(self.registry.names())} generated functions, "
                 f"{self.max_workers} workers",
                 self.scheduler.describe()]
        if self.prepared is not None:
            lines.append(self.prepared.describe())
        lines.append(self.gateway.describe())
        if self.skill_store is not None:
            lines.append(self.skill_store.describe())
        query_latency = self.metrics.histogram("latency_ms.query")
        if query_latency.count:
            summary = query_latency.summary()
            lines.append(f"queries: {summary['count']} traced, "
                         f"p50={summary['p50']}ms p95={summary['p95']}ms "
                         f"p99={summary['p99']}ms max={summary['max']}ms")
        if self.slow_queries.enabled:
            lines.append(self.slow_queries.describe())
        return "\n".join(lines)
