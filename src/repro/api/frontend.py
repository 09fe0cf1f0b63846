"""The request front-end shared by every KathDB service.

:class:`RequestFrontend` is the one admission path: it admits requests to a
:class:`~repro.sched.scheduler.FairShareScheduler`, stamps the scheduling
metadata on each answer and turns rejections into ``ok=False`` responses.
A subclass supplies only :meth:`RequestFrontend._execute`: a fresh local
session (:class:`~repro.api.service.KathDBService`) or a routed /
scatter-gathered query (:class:`~repro.sharding.ShardedService`).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.api.request import QueryOptions, QueryRequest, QueryResponse
from repro.core.config import KathDBConfig
from repro.errors import SchedulerRejection
from repro.interaction.user import UserAgent
from repro.obs.metrics import MetricsRegistry
from repro.sched.cancel import CancelToken
from repro.sched.scheduler import FairShareScheduler, ScheduledTask


class RequestFrontend:
    """query/submit/query_batch over a fair-share scheduler."""

    def __init__(self, config: KathDBConfig, metrics: MetricsRegistry,
                 workers: int):
        self.config = config
        self.metrics = metrics
        self._session_ids = itertools.count(1)
        # Per-tenant fair-share queues inside priority classes, bounded
        # backpressure, deadline shedding.  Workers start on demand.
        self.scheduler = FairShareScheduler(
            workers=workers,
            queue_limit=config.sched_queue_limit,
            metrics=metrics)
        metrics.register_view("sched", self.scheduler.stats)

    def _execute(self, request: QueryRequest, session_name: str,
                 tenant: str) -> QueryResponse:
        """Answer one admitted request (runs on a scheduler worker)."""
        raise NotImplementedError

    # -- querying ----------------------------------------------------------------------
    def query(self, request: Union[str, QueryRequest],
              user: Optional[UserAgent] = None,
              options: Optional[QueryOptions] = None) -> QueryResponse:
        """Answer one request and wait for it."""
        return self._schedule(self._coerce(request, user, options)).result()

    def submit(self, request: Union[str, QueryRequest],
               user: Optional[UserAgent] = None,
               options: Optional[QueryOptions] = None
               ) -> "concurrent.futures.Future[QueryResponse]":
        """Admit one request to the scheduler; returns a future.

        The future always resolves to a :class:`QueryResponse` — a shed
        request (full queue, lapsed deadline, draining scheduler) yields a
        structured ``ok=False`` response with ``shed_reason`` set rather
        than raising.
        """
        return self._schedule(self._coerce(request, user, options))

    def gather(self, futures: Iterable["concurrent.futures.Future[QueryResponse]"]
               ) -> List[QueryResponse]:
        """Wait for submitted requests, preserving submission order."""
        return [future.result() for future in futures]

    def query_batch(self, requests: Sequence[Union[str, QueryRequest]],
                    user: Optional[UserAgent] = None,
                    options: Optional[QueryOptions] = None,
                    jobs: Optional[int] = None) -> List[QueryResponse]:
        """Answer many requests, each admitted like any other.

        ``jobs`` caps this batch's in-flight requests (default: the
        scheduler's worker count); ``jobs=1`` runs them one at a time, which
        by design produces row-identical results to the concurrent path.
        """
        coerced = [self._coerce(r, user, options) for r in requests]
        if len(coerced) > 1:
            # One agent shared across concurrent requests — whether via the
            # user= convenience parameter or embedded in the QueryRequests —
            # would race its internal state (e.g. a ScriptedUser's correction
            # cursor); give every request an equivalent independent copy.
            coerced = [self._isolate_user(request) for request in coerced]
        limit = max(1, min(jobs or self.scheduler.workers, len(coerced)))
        self.scheduler.ensure_workers(limit)
        # A counting gate caps this batch's in-flight share of the scheduler
        # at ``jobs`` without blocking other callers' submissions, and keeps
        # a long single-tenant batch from overflowing its own bounded queue.
        gate = threading.Semaphore(limit)
        futures: List["concurrent.futures.Future[QueryResponse]"] = []
        for request in coerced:
            gate.acquire()
            future = self._schedule(request)
            future.add_done_callback(lambda _f: gate.release())
            futures.append(future)
        return [future.result() for future in futures]

    def scheduler_stats(self) -> Dict[str, Any]:
        """Fair-share scheduler state (per-class, per-tenant and total
        counters), read through the metrics registry."""
        return self.metrics.view("sched")

    # -- internals ---------------------------------------------------------------------
    def _coerce(self, request: Union[str, QueryRequest],
                user: Optional[UserAgent],
                options: Optional[QueryOptions]) -> QueryRequest:
        if isinstance(request, str):
            return QueryRequest(nl_query=request, user=user,
                                options=options or QueryOptions())
        return request

    def _isolate_user(self, request: QueryRequest) -> QueryRequest:
        """Swap a request's agent for an independent copy (stateful agents)."""
        if request.user is None:
            return request
        cloned = request.user.clone()
        if cloned is request.user:
            return request
        return dataclasses.replace(request, user=cloned)

    def _schedule(self, request: QueryRequest
                  ) -> "concurrent.futures.Future[QueryResponse]":
        """The single dispatch entry point behind query/submit/query_batch.

        Resolves the request's (tenant, priority class, deadline) — an
        absent tenant is the request's own minted session name — admits it
        to the scheduler, and returns a future that *always* resolves to a
        response: rejections (backpressure, lapsed deadline, shutdown)
        become structured ``ok=False`` responses with ``shed_reason`` set.
        """
        session_name = f"s{next(self._session_ids)}"
        tenant, sched_class, deadline_ms = request.sched_params()
        tenant = tenant or session_name
        token = CancelToken.with_deadline_ms(deadline_ms)

        def runner(task: ScheduledTask) -> QueryResponse:
            response = self._execute(request, session_name, tenant)
            response.queue_ms = task.queue_ms
            response.sched_class = task.sched_class
            response.scheduler_stats = self.scheduler.tenant_snapshot(tenant)
            return response

        def shed(task: ScheduledTask, reason: str) -> QueryResponse:
            return self._shed_response(request, session_name, tenant,
                                       task.sched_class, reason,
                                       queue_ms=task.queue_ms)

        future: "concurrent.futures.Future[QueryResponse]"
        if self.scheduler.in_worker():
            # Re-entrant submission from inside a worker (e.g. a nested
            # query): run inline — queueing could deadlock a full pool.
            future = concurrent.futures.Future()
            future.set_result(self.scheduler.run_inline(
                runner, tenant, sched_class, token=token))
            return future
        try:
            return self.scheduler.submit(runner, tenant, sched_class,
                                         token=token, shed_result=shed)
        except SchedulerRejection as rejection:
            future = concurrent.futures.Future()
            future.set_result(self._shed_response(
                request, session_name, tenant, sched_class, rejection.reason))
            return future

    def _shed_response(self, request: QueryRequest, session_id: str,
                       tenant: str, sched_class: str, reason: str,
                       queue_ms: float = 0.0) -> QueryResponse:
        """A structured ``ok=False`` response for a request that never ran."""
        return QueryResponse(
            request=request, result=None, session_id=session_id, ok=False,
            error=f"request shed by scheduler ({reason}) for tenant {tenant!r}",
            shed_reason=reason, sched_class=sched_class, queue_ms=queue_ms,
            scheduler_stats=self.scheduler.tenant_snapshot(tenant))
