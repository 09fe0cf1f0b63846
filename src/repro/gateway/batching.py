"""The one executor for batched gateway misses, and its collection window.

Embeddings, entity extraction, pixel detection, and OCR are the model kinds
a real serving stack batches: they are cheap per item, high-volume, and
their backends accept many inputs per invocation.  Every batched miss the
gateway executes runs through :meth:`MicroBatcher.execute`: one admission
slot for the whole chunk, a chunk of one as a plain metered call, and a
larger chunk as **one batched invocation** through
:func:`repro.models.batching.plan_batch` — duplicate members share one
computation, the batch pays one shared prompt/setup overhead plus
per-member marginal content (sub-linear token growth), and each cost meter
in the chunk is charged its members' summed fair shares as one
:class:`~repro.models.cost.BatchedModelCall`.  A vector from one session
therefore lands as one record covering every member, while a window shared
by several sessions lands as one record per session.

Two callers feed the executor.  The gateway funnel
(:class:`~repro.gateway.vectorized.GatewayBatchClient`) hands it each chunk
of a multi-call vector directly.  A one-call miss goes through
:meth:`MicroBatcher.submit`, whose window groups it with same-kind misses
from other sessions.  The window only sleeps when the leader is *alone* —
when followers are already queued there is a batch to run, and waiting a
further window would add pure latency — so each call waits at most one
window beyond its execution time.  With ``window_s == 0`` the batcher
still opportunistically batches whatever queued *while the leader held the
slot* — zero added latency, the right default when model latency is not
being simulated.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.gateway.admission import AdmissionController
from repro.models.batching import (
    BatchMember,
    BatchPlan,
    MemberOutcome,
    metered_call,
    plan_batch,
)


@dataclass
class _Pending:
    """One queued call: the member description and the future its caller awaits."""

    member: BatchMember
    future: "Future[MemberOutcome]"


@dataclass
class KindBatchStats:
    """Batch-size accounting for one batchable kind."""

    batches: int = 0
    batched_calls: int = 0
    largest_batch: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"batches": self.batches, "batched_calls": self.batched_calls,
                "largest_batch": self.largest_batch}


@dataclass
class BatchStats:
    """Counters for the micro-batching tier."""

    batches: int = 0
    batched_calls: int = 0    # calls that shared a batch with at least one other
    largest_batch: int = 0
    token_savings: int = 0    # serial-minus-batched tokens across all batches
    by_kind: Dict[str, KindBatchStats] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"batches": self.batches, "batched_calls": self.batched_calls,
                "largest_batch": self.largest_batch,
                "token_savings": self.token_savings,
                "by_kind": {kind: stats.as_dict()
                            for kind, stats in sorted(self.by_kind.items())}}


def metered_outcome(member: BatchMember) -> MemberOutcome:
    """Run one member serially; its model charges its own meter.

    The outcome carries the metered cost as both the serial and the charged
    price (only totals are tracked, on the prompt side).  A member error is
    returned in the outcome, as :func:`~repro.models.batching.plan_batch`
    does for batched members.
    """
    outcome = MemberOutcome()
    try:
        outcome.result, cost = metered_call(member.model, member.method,
                                            member.args, member.kwargs)
    except Exception as error:  # noqa: BLE001 - delivered to the caller
        outcome.error = error
        return outcome
    outcome.serial_prompt = outcome.charge_prompt = cost
    return outcome


def _record_shares(members: Sequence[BatchMember], plan: BatchPlan) -> None:
    """Charge each cost meter in the chunk its members' summed shares."""
    by_meter: Dict[int, List[Tuple[BatchMember, MemberOutcome]]] = {}
    for member, outcome in zip(members, plan.outcomes):
        meter = getattr(member.model, "cost_meter", None)
        if outcome.error is None and meter is not None:
            by_meter.setdefault(id(meter), []).append((member, outcome))
    for group in by_meter.values():
        first = group[0][0]
        first.model.cost_meter.record_batched(
            getattr(first.model, "name", type(first.model).__name__),
            first.purpose,
            sum(outcome.charge_prompt for _, outcome in group),
            sum(outcome.charge_completion for _, outcome in group),
            batch_size=plan.size, members=len(group),
            serial_tokens=sum(outcome.serial_tokens for _, outcome in group),
            latency_s=sum(outcome.latency_share_s for _, outcome in group))


class MicroBatcher:
    """Executes chunks of misses, grouping one-call misses within ``window_s``."""

    def __init__(self, admission: AdmissionController,
                 window_s: float = 0.0, max_batch: int = 32):
        self._admission = admission
        self.window_s = max(0.0, float(window_s))
        self.max_batch = max(1, int(max_batch))
        self._queues: Dict[str, List[_Pending]] = {}
        self._leaders: Dict[str, bool] = {}
        self._lock = threading.Lock()
        self.stats = BatchStats()
        # Collection windows actually slept (one per leadership when
        # window_s > 0); regression tests pin the bounded-latency contract
        # on this instead of wall clocks.
        self.window_sleeps = 0

    def execute(self, kind: str, members: Sequence[BatchMember]
                ) -> List[MemberOutcome]:
        """Run one chunk of ``kind`` misses under one admission slot.

        One member runs as a metered serial call; two or more run as one
        batched invocation whose shares are recorded per cost meter.  Member
        errors come back in their outcomes; only an infrastructure failure
        (e.g. an interrupt while waiting for the slot) raises.
        """
        saved = 0
        with self._admission.slot():
            if len(members) == 1:
                outcomes = [metered_outcome(members[0])]
            else:
                plan = plan_batch(members)
                _record_shares(members, plan)
                outcomes, saved = plan.outcomes, plan.tokens_saved
        size = len(members)
        with self._lock:
            per_kind = self.stats.by_kind.setdefault(kind, KindBatchStats())
            for stats in (self.stats, per_kind):
                stats.batches += 1
                stats.largest_batch = max(stats.largest_batch, size)
                if size > 1:
                    stats.batched_calls += size
            self.stats.token_savings += saved
        return outcomes

    def submit(self, kind: str, member: BatchMember) -> "Future[MemberOutcome]":
        """Enqueue one call of ``kind``; leads the batch if nobody else is.

        The returned future resolves to the member's outcome, token shares
        included.  The leader runs batches *inline* on the calling thread
        until the queue drains, so no background threads are involved and a
        crash in one member only fails that member's outcome.
        """
        pending = _Pending(member=member, future=Future())
        with self._lock:
            self._queues.setdefault(kind, []).append(pending)
            lead = not self._leaders.get(kind, False)
            if lead:
                self._leaders[kind] = True
        if lead:
            try:
                # Sleep the collection window **once per leadership**, before
                # the first drain.  A new leader always starts alone —
                # leadership is only released on an empty queue — so this is
                # exactly the accumulation window, and every call waits at
                # most one window beyond its execution.  Inside the try: an
                # async exception during the sleep must release leadership
                # like any other failure.
                if self.window_s > 0:
                    with self._lock:
                        self.window_sleeps += 1
                    time.sleep(self.window_s)
                while True:
                    self._drain(kind)
                    # Release leadership and re-check the queue under one
                    # lock: a follower that enqueued during the drain is
                    # seen here (loop again); one that enqueues afterwards
                    # finds no leader and leads its own batch.
                    with self._lock:
                        if not self._queues.get(kind):
                            self._leaders[kind] = False
                            break
            except BaseException as error:
                # _drain only raises on infrastructure failure (member
                # exceptions are delivered in their outcomes); don't strand
                # queued followers without a leader.
                with self._lock:
                    stranded = self._queues.pop(kind, [])
                    self._leaders[kind] = False
                for waiting in stranded:
                    if not waiting.future.done():
                        waiting.future.set_exception(error)
                raise
        return pending.future

    def _drain(self, kind: str) -> None:
        """Run queued calls of one kind through the executor, chunk by chunk."""
        while True:
            with self._lock:
                queue = self._queues.get(kind, [])
                chunk, self._queues[kind] = queue[:self.max_batch], queue[self.max_batch:]
            if not chunk:
                return
            try:
                outcomes = self.execute(kind, [pending.member for pending in chunk])
            except BaseException as error:
                # The chunk is already dequeued, so submit()'s stranded-
                # follower sweep cannot see it: an infra failure here must
                # fail the extracted members itself, or their callers hang
                # forever on future.result().
                for waiting in chunk:
                    if not waiting.future.done():
                        waiting.future.set_exception(error)
                raise
            for pending, outcome in zip(chunk, outcomes):
                pending.future.set_result(outcome)
