"""Multi-tenant fair-share admission scheduler.

The one admission path of every KathDB service: each admitted request lands
on a bounded per-tenant queue inside one of three priority classes, and a
small worker pool drains the queues under two policies layered together:

* **Class reservations** — each class (``interactive``/``batch``/
  ``background``) reserves a slice of the worker pool.  A class may borrow
  idle capacity beyond its reservation (the scheduler is work-conserving),
  but never so much that another backlogged class cannot reach its own
  reservation.
* **Deficit round-robin across tenants** — within a class, tenants are
  visited in round-robin order and accumulate ``weight`` units of deficit
  per visit; one request costs one unit.  A hog tenant with a deep queue
  therefore gets the same drain rate as a light tenant of equal weight,
  which bounds the light tenant's time-in-queue.

Backpressure is structured, never blocking: a full tenant queue sheds the
request with :class:`~repro.errors.SchedulerRejection` at submit time, and a
lapsed deadline resolves the request's future with a shed result *before*
dispatch (no worker is spent on dead work).  Worker threads start on
demand, one per running or queued task up to ``workers``.  All
instrumentation is keyed off the shared
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from contextvars import ContextVar
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SchedulerRejection
from repro.obs.metrics import MetricsRegistry
from repro.sched.cancel import CancelToken, activate

PRIORITY_CLASSES: Tuple[str, ...] = ("interactive", "batch", "background")
DEFAULT_PRIORITY = "interactive"

# LRU bound on the tenants whose shed/expired counts the scheduler keeps:
# minted per-request tenants must not grow the map (or stats()) forever.
_MAX_TRACKED_TENANTS = 1024

# How long an idle worker sleeps between wakeup checks.  Workers are also
# notified explicitly on every submit/completion; the timeout only bounds
# how late a *deadline-expired* queued task is discovered when the system
# is otherwise idle.
_IDLE_WAIT_S = 0.05


class ScheduledTask:
    """One admitted request: its runner, bookkeeping stamps, and future."""

    __slots__ = ("runner", "tenant", "sched_class", "token", "future",
                 "enqueue_pc", "dispatch_pc", "queue_ms", "shed_result")

    def __init__(self, runner: Callable[["ScheduledTask"], Any], tenant: str,
                 sched_class: str, token: Optional[CancelToken],
                 shed_result: Optional[Callable[["ScheduledTask", str], Any]] = None):
        self.runner = runner
        self.tenant = tenant
        self.sched_class = sched_class
        self.token = token
        self.future: Future = Future()
        self.enqueue_pc = time.perf_counter()
        self.dispatch_pc: Optional[float] = None
        self.queue_ms = 0.0
        # Producer of a structured "this request was shed" value (reason in
        # {"deadline", "shutdown"}); when None the future gets an exception.
        self.shed_result = shed_result


_CURRENT_TASK: ContextVar[Optional[ScheduledTask]] = ContextVar(
    "kathdb_sched_task", default=None)


def current_task() -> Optional[ScheduledTask]:
    """The task whose runner is executing on this thread, if any.

    ``Session.query`` reads this to backdate a ``queue`` span into the
    query's trace without widening the query API.
    """
    return _CURRENT_TASK.get()


class _TenantQueue:
    __slots__ = ("tenant", "weight", "deficit", "items")

    def __init__(self, tenant: str, weight: float):
        self.tenant = tenant
        self.weight = max(1.0, float(weight))
        self.deficit = 0.0
        self.items: Deque[ScheduledTask] = deque()


class _ClassBoard:
    """All tenant queues of one priority class, drained by deficit RR."""

    __slots__ = ("name", "reserved", "queues", "active", "running", "depth")

    def __init__(self, name: str, reserved: int):
        self.name = name
        self.reserved = reserved
        # Tenants with queued work only: a queue is dropped when it drains,
        # so one-off tenants (every request's default is a fresh one) leave
        # nothing behind.
        self.queues: Dict[str, _TenantQueue] = {}
        # Round-robin ring of the same tenants.
        self.active: Deque[str] = deque()
        self.running = 0
        self.depth = 0

    def queue_for(self, tenant: str, weight: float) -> _TenantQueue:
        queue = self.queues.get(tenant)
        if queue is None:
            queue = self.queues[tenant] = _TenantQueue(tenant, weight)
        return queue

    def push(self, task: ScheduledTask, weight: float) -> _TenantQueue:
        queue = self.queue_for(task.tenant, weight)
        if not queue.items:
            self.active.append(task.tenant)
        queue.items.append(task)
        self.depth += 1
        return queue

    def pop_next(self) -> Optional[ScheduledTask]:
        """Deficit round-robin: one visit grants ``weight`` units; a pop
        costs one.  Weights are clamped >= 1 so every rotation makes
        progress and the loop terminates.  A drained queue is deleted, which
        also resets its deficit."""
        while self.active:
            queue = self.queues[self.active[0]]
            if queue.deficit >= 1.0:
                queue.deficit -= 1.0
                task = queue.items.popleft()
                self.depth -= 1
                if queue.items:
                    self.active.rotate(-1)
                else:
                    self.active.popleft()
                    del self.queues[queue.tenant]
                return task
            queue.deficit += queue.weight
            self.active.rotate(-1)
        return None


def default_reservations(workers: int) -> Dict[str, int]:
    """Split a worker pool into class reservations (sum <= workers).

    Interactive gets half (at least one slot — latency-sensitive work must
    never starve), batch a quarter, background the remainder.
    """
    interactive = max(1, workers // 2)
    batch = workers // 4
    background = max(0, workers - interactive - batch)
    return {"interactive": interactive, "batch": batch, "background": background}


class FairShareScheduler:
    """Weighted fair-share scheduler over a thread worker pool."""

    def __init__(self, workers: int = 4, queue_limit: int = 64,
                 reservations: Optional[Dict[str, int]] = None,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "sched"):
        if workers < 1:
            raise ValueError("scheduler needs at least one worker")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.workers = workers
        self.queue_limit = queue_limit
        self.tenant_weights = dict(tenant_weights or {})
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.name = name

        reserved = dict(default_reservations(workers))
        for cls, slots in (reservations or {}).items():
            if cls not in PRIORITY_CLASSES:
                raise ValueError(f"unknown priority class {cls!r}")
            reserved[cls] = max(0, int(slots))
        # Reservations are guarantees; they cannot exceed the pool.
        overcommit = sum(reserved.values()) - workers
        for cls in reversed(PRIORITY_CLASSES):
            if overcommit <= 0:
                break
            give = min(reserved[cls], overcommit)
            reserved[cls] -= give
            overcommit -= give
        self.boards: Dict[str, _ClassBoard] = {
            cls: _ClassBoard(cls, reserved[cls]) for cls in PRIORITY_CLASSES}

        self._cond = threading.Condition()
        self._closed = False
        self._running_total = 0
        self._threads: List[threading.Thread] = []
        self._local = threading.local()
        # tenant -> {"shed": n, "expired": n}, least recently counted first.
        self._tenant_counts: "OrderedDict[str, Dict[str, int]]" = OrderedDict()

        self._admitted = self.metrics.counter(f"{name}.admitted")
        self._shed = self.metrics.counter(f"{name}.shed")
        self._expired = self.metrics.counter(f"{name}.expired")
        self._cancelled = self.metrics.counter(f"{name}.cancelled")
        self._completed = self.metrics.counter(f"{name}.completed")
        self._queue_hist = self.metrics.histogram(f"{name}.queue_ms")
        for cls, board in self.boards.items():
            self.metrics.gauge(f"{name}.depth.{cls}",
                               fn=lambda b=board: float(b.depth))
        self.metrics.gauge(f"{name}.running", fn=lambda: float(self._running_total))

    # -- worker pool -------------------------------------------------------
    def _grow_locked(self) -> None:
        """Start workers on demand, the way ``ThreadPoolExecutor`` does: one
        per running or queued task, up to ``workers``."""
        queued = sum(board.depth for board in self.boards.values())
        target = min(self.workers, self._running_total + queued)
        while len(self._threads) < target:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"kathdb-{self.name}-{len(self._threads)}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def ensure_workers(self, target: int) -> None:
        """Raise the worker cap to ``target`` (never shrinks); workers still
        start on demand.

        Reservations keep their configured values — extra workers are pure
        borrowable capacity, so class guarantees still hold.
        """
        with self._cond:
            if self._closed or target <= self.workers:
                return
            self.workers = target
            self._grow_locked()
            self._cond.notify_all()

    def in_worker(self) -> bool:
        """True on a scheduler worker thread (re-entrant submits must run
        inline or a full pool would deadlock on itself)."""
        return bool(getattr(self._local, "is_worker", False))

    # -- submission --------------------------------------------------------
    def submit(self, runner: Callable[[ScheduledTask], Any], tenant: str,
               sched_class: str = DEFAULT_PRIORITY,
               token: Optional[CancelToken] = None,
               shed_result: Optional[Callable[[ScheduledTask, str], Any]] = None,
               ) -> Future:
        """Admit one request; returns a Future resolving to the runner's value.

        Raises :class:`SchedulerRejection` (reason ``"backpressure"`` /
        ``"shutdown"``) instead of blocking when the tenant's queue for this
        class is full or the scheduler is draining.  A deadline that has
        already lapsed resolves the future immediately with the shed result
        (reason ``"deadline"``) without consuming a queue slot.
        """
        if sched_class not in PRIORITY_CLASSES:
            raise SchedulerRejection("unknown-class", tenant, sched_class)
        task = ScheduledTask(runner, tenant, sched_class, token, shed_result)
        if token is not None and token.cancelled:
            self._resolve_shed(task, "deadline")
            return task.future
        weight = self.tenant_weights.get(tenant, 1.0)
        with self._cond:
            if self._closed:
                raise SchedulerRejection("shutdown", tenant, sched_class)
            board = self.boards[sched_class]
            queue = board.queue_for(tenant, weight)
            if len(queue.items) >= self.queue_limit:
                self._shed.inc()
                self._count_locked(tenant, "shed")
                raise SchedulerRejection(
                    "backpressure", tenant, sched_class, len(queue.items))
            board.push(task, weight)
            self._admitted.inc()
            self._grow_locked()
            self._cond.notify()
        return task.future

    def run_inline(self, runner: Callable[[ScheduledTask], Any], tenant: str,
                   sched_class: str = DEFAULT_PRIORITY,
                   token: Optional[CancelToken] = None) -> Any:
        """Execute ``runner`` on the calling thread with full task context.

        Used for re-entrant submissions from inside a worker: queueing them
        could deadlock a saturated pool, and the caller already holds a
        scheduling slot.
        """
        task = ScheduledTask(runner, tenant, sched_class, token)
        task.dispatch_pc = task.enqueue_pc
        self._admitted.inc()
        ctx_task = _CURRENT_TASK.set(task)
        try:
            with activate(token):
                result = runner(task)
            self._completed.inc()
            return result
        finally:
            _CURRENT_TASK.reset(ctx_task)

    # -- dispatch ----------------------------------------------------------
    def _next_locked(self) -> Optional[Tuple[ScheduledTask, _ClassBoard]]:
        free = self.workers - self._running_total
        if free <= 0:
            return None
        backlogged = [b for b in self.boards.values() if b.depth > 0]
        for board in (self.boards[cls] for cls in PRIORITY_CLASSES):
            if board.depth == 0:
                continue
            if board.running < board.reserved:
                task = board.pop_next()
            else:
                # Work-conserving borrow: only take a slot beyond our
                # reservation when the remaining free slots still cover
                # every other backlogged class's unmet reservation.
                unmet = sum(max(0, other.reserved - other.running)
                            for other in backlogged if other is not board)
                if free - 1 < unmet:
                    continue
                task = board.pop_next()
            if task is not None:
                return task, board
        return None

    def _worker_loop(self) -> None:
        self._local.is_worker = True
        while True:
            with self._cond:
                while True:
                    picked = self._next_locked()
                    if picked is not None:
                        task, board = picked
                        board.running += 1
                        self._running_total += 1
                        break
                    if self._closed:
                        return
                    self._cond.wait(_IDLE_WAIT_S)
            try:
                self._dispatch(task)
            finally:
                with self._cond:
                    board.running -= 1
                    self._running_total -= 1
                    self._cond.notify()

    def _dispatch(self, task: ScheduledTask) -> None:
        task.dispatch_pc = time.perf_counter()
        task.queue_ms = (task.dispatch_pc - task.enqueue_pc) * 1000.0
        self._queue_hist.observe(task.queue_ms)
        if task.token is not None and task.token.cancelled:
            # Deadline lapsed while queued: shed before spending a worker.
            self._resolve_shed(task, task.token.reason or "deadline")
            return
        if not task.future.set_running_or_notify_cancel():
            self._cancelled.inc()
            return
        ctx_task = _CURRENT_TASK.set(task)
        try:
            with activate(task.token):
                result = task.runner(task)
        except BaseException as error:  # noqa: BLE001 - forwarded to the future
            self._cancelled.inc()
            task.future.set_exception(error)
        else:
            self._completed.inc()
            task.future.set_result(result)
        finally:
            _CURRENT_TASK.reset(ctx_task)

    def _resolve_shed(self, task: ScheduledTask, reason: str) -> None:
        if reason == "deadline":
            self._expired.inc()
            with self._cond:
                self._count_locked(task.tenant, "expired")
        else:
            self._shed.inc()
        try:
            if task.shed_result is not None:
                task.future.set_result(task.shed_result(task, reason))
            else:
                task.future.set_exception(SchedulerRejection(
                    reason, task.tenant, task.sched_class))
        except InvalidStateError:
            pass  # the caller cancelled the future first

    def _count_locked(self, tenant: str, kind: str) -> None:
        """Bump one tenant's ``shed``/``expired`` count, evicting the least
        recently counted tenant beyond :data:`_MAX_TRACKED_TENANTS`."""
        self._tenant_counts.setdefault(tenant, {"shed": 0, "expired": 0})[kind] += 1
        self._tenant_counts.move_to_end(tenant)
        if len(self._tenant_counts) > _MAX_TRACKED_TENANTS:
            self._tenant_counts.popitem(last=False)

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Scheduler state snapshot (also exposed as the ``sched`` view)."""
        with self._cond:
            classes: Dict[str, Any] = {}
            tenants: Dict[str, Dict[str, int]] = {}
            for cls, board in self.boards.items():
                classes[cls] = {"depth": board.depth, "running": board.running,
                                "reserved": board.reserved}
                for tenant, queue in board.queues.items():
                    entry = tenants.setdefault(
                        tenant, {"queued": 0, "shed": 0, "expired": 0})
                    entry["queued"] += len(queue.items)
            for tenant, counts in self._tenant_counts.items():
                tenants.setdefault(
                    tenant, {"queued": 0, "shed": 0, "expired": 0}).update(counts)
            return {
                "workers": self.workers,
                "running": self._running_total,
                "queued": sum(b.depth for b in self.boards.values()),
                "admitted": self._admitted.value,
                "completed": self._completed.value,
                "shed": self._shed.value,
                "expired": self._expired.value,
                "cancelled": self._cancelled.value,
                "classes": classes,
                "tenants": tenants,
            }

    def tenant_snapshot(self, tenant: str) -> Dict[str, Any]:
        """Small per-tenant view attached to each QueryResponse."""
        with self._cond:
            queued = sum(len(board.queues[tenant].items)
                         for board in self.boards.values()
                         if tenant in board.queues)
            counts = self._tenant_counts.get(tenant, {})
            return {
                "tenant": tenant,
                "queued": queued,
                "shed": counts.get("shed", 0),
                "expired": counts.get("expired", 0),
                "running": self._running_total,
                "workers": self.workers,
            }

    def describe(self) -> str:
        stats = self.stats()
        classes = ", ".join(
            f"{cls}={info['reserved']}" for cls, info in stats["classes"].items())
        return (f"fair-share scheduler: {stats['workers']} workers "
                f"(reservations {classes}), {stats['queued']} queued, "
                f"{stats['admitted']} admitted, {stats['shed']} shed, "
                f"{stats['expired']} expired")

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Drain: shed every queued task, then stop the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pending: List[ScheduledTask] = []
            for board in self.boards.values():
                for queue in board.queues.values():
                    pending.extend(queue.items)
                board.queues.clear()
                board.active.clear()
                board.depth = 0
            self._cond.notify_all()
        for task in pending:
            self._resolve_shed(task, "shutdown")
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)
