"""The one executor for gateway misses.

Every miss the gateway executes runs through :meth:`MicroBatcher.execute`
in chunks taken from one caller's vector, under one admission slot per
chunk.  The chunk's size picks its route:

* a one-member chunk runs as a plain metered serial call;
* a chunk of two or more runs as **one batched invocation** through
  :func:`repro.models.batching.plan_batch` — duplicate members share one
  computation, the batch pays one shared prompt/setup overhead plus
  per-member marginal content (sub-linear token growth), and the caller's
  cost meter is charged the members' summed fair shares as one
  :class:`~repro.models.cost.BatchedModelCall`.

:meth:`MicroBatcher.submit` is the one-member entry: it runs the member
inline and returns an already-resolved future.  :class:`BatchStats` counts
shared invocations only, so a chunk of one never counts as a batch.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.gateway.admission import AdmissionController
from repro.models.batching import (
    BatchMember,
    MemberOutcome,
    plan_batch,
    record_shares,
)


@dataclass
class KindBatchStats:
    """Batch-size accounting for one model method's batched invocations."""

    batches: int = 0
    batched_calls: int = 0
    largest_batch: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"batches": self.batches, "batched_calls": self.batched_calls,
                "largest_batch": self.largest_batch}


@dataclass
class BatchStats:
    """Counters for the batched invocations (chunks of two or more)."""

    batches: int = 0
    batched_calls: int = 0    # members across those invocations
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
    meter = getattr(member.model, "cost_meter", None)
    marker = meter.snapshot() if meter is not None else 0
    try:
        outcome.result = getattr(member.model, member.method)(
            *member.args, **member.kwargs)
    except Exception as error:  # noqa: BLE001 - delivered to the caller
        outcome.error = error
        return outcome
    cost = meter.tokens_since(marker) if meter is not None else 0
    outcome.serial_prompt = outcome.charge_prompt = cost
    return outcome


class MicroBatcher:
    """Executes chunks of misses: one metered call, or one batched invocation."""

    def __init__(self, admission: AdmissionController, max_batch: int = 32):
        self._admission = admission
        self.max_batch = max(1, int(max_batch))
        self._lock = threading.Lock()
        self.stats = BatchStats()

    def execute(self, kind: str, members: Sequence[BatchMember]
                ) -> List[MemberOutcome]:
        """Run one chunk of ``kind`` misses under one admission slot.

        One member runs as a metered serial call; two or more run as one
        batched invocation whose summed shares are recorded on the caller's
        meter, and only those count in :attr:`stats`.  Member errors come
        back in their outcomes; only an infrastructure failure (e.g. an
        interrupt while waiting for the slot) raises.
        """
        with self._admission.slot():
            if len(members) == 1:
                return [metered_outcome(members[0])]
            plan = plan_batch(members)
            record_shares(members, plan)
        size = len(members)
        with self._lock:
            per_kind = self.stats.by_kind.setdefault(kind, KindBatchStats())
            for stats in (self.stats, per_kind):
                stats.batches += 1
                stats.batched_calls += size
                stats.largest_batch = max(stats.largest_batch, size)
            self.stats.token_savings += plan.tokens_saved
        return plan.outcomes

    def submit(self, kind: str, member: BatchMember) -> "Future[MemberOutcome]":
        """Run one ``kind`` miss inline; returns its already-resolved outcome.

        A member error is delivered in the outcome; an infrastructure
        failure raises here, as from :meth:`execute`.  The outcome comes in
        a future because ``benchmarks/e2e`` times this entry by name as
        ``gateway.batch_wait_ms``.
        """
        future: "Future[MemberOutcome]" = Future()
        future.set_result(self.execute(kind, [member])[0])
        return future
