"""Token and latency accounting for simulated model calls.

KathDB's optimizer "attaches cost and accuracy statistics to individual FAO
implementations and compares alternatives under a unified cost model".  The
:class:`CostMeter` is the ledger those statistics are drawn from: every
simulated model call reports its prompt/completion token counts and a
synthetic latency, tagged with the model name and a free-form *purpose*
(e.g. ``"sketch_generation"``, ``"classify_boring"``).

Two ledger shapes exist:

* :class:`ModelCall` — one serial invocation, charged as the model runs;
* :class:`BatchedModelCall` — one *batched* invocation (or one member's
  share of it): several logical calls executed together pay a single shared
  prompt/setup overhead plus per-item marginal cost, so the ledger shows
  batching as sub-linear token growth the way a real serving stack's bill
  does.  ``serial_tokens`` keeps what the covered calls would have cost one
  by one, making the savings auditable.

The meter is thread-safe: a batch leader records member shares on *other*
sessions' meters while those sessions may be summarizing their own.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


#: Synthetic per-token latency (seconds) by model family; only relative
#: magnitudes matter for the benchmarks.
LATENCY_PER_TOKEN = {
    "llm": 0.00002,
    "vlm": 0.00004,
    "embedding": 0.000002,
    "ner": 0.000004,
    "detector": 0.00001,
    "ocr": 0.000003,
}


def family_latency(model: str, tokens: int) -> float:
    """The synthetic latency of ``tokens`` on a model (by its family prefix)."""
    family = model.split(":", 1)[0]
    return LATENCY_PER_TOKEN.get(family, 0.00002) * tokens


@dataclass
class ModelCall:
    """One recorded model invocation."""

    model: str
    purpose: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        """Prompt + completion tokens."""
        return self.prompt_tokens + self.completion_tokens


@dataclass
class BatchedModelCall(ModelCall):
    """One batched invocation, or one member's fair share of it.

    ``batch_size`` is how many logical calls shared the invocation.
    ``members`` is how many of them this record covers: every member that
    succeeded, since the gateway bills a chunk of one caller's vector to
    that caller's one meter (:func:`~repro.models.batching.record_shares`).
    ``serial_tokens`` is what the covered calls would have cost serially, so
    ``tokens_saved`` is the sub-linear discount this record captures.
    """

    batch_size: int = 1
    members: int = 1
    serial_tokens: int = 0

    @property
    def tokens_saved(self) -> int:
        """Tokens the batch saved versus serial execution of these members."""
        return max(0, self.serial_tokens - self.total_tokens)


@dataclass
class CostSummary:
    """Aggregated view over a set of calls."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def add(self, call: ModelCall) -> None:
        self.calls += 1
        self.prompt_tokens += call.prompt_tokens
        self.completion_tokens += call.completion_tokens
        self.latency_s += call.latency_s


class CostMeter:
    """Accumulates :class:`ModelCall` records and summarizes them."""

    #: Kept as a class attribute for backwards compatibility; the canonical
    #: table is module-level :data:`LATENCY_PER_TOKEN`.
    LATENCY_PER_TOKEN = LATENCY_PER_TOKEN

    # Thread-local capture frames: while a capture() is active on a thread,
    # *every* meter's record() on that thread diverts into the innermost
    # frame instead of any ledger.  Batched execution uses this to cost a
    # member's serial price without charging it.
    _capture = threading.local()

    def __init__(self, latency_scale: float = 0.0, max_sleep_s: float = 0.05):
        self._calls: List[ModelCall] = []
        self._lock = threading.Lock()
        # When > 0, every recorded call actually *sleeps* its synthetic latency
        # multiplied by this scale (capped per call).  Real model calls are
        # network-bound, so this is what makes the concurrency benchmarks
        # honest: sleeping releases the GIL exactly like an HTTP wait would.
        self.latency_scale = latency_scale
        self.max_sleep_s = max_sleep_s

    # -- capture ------------------------------------------------------------
    @classmethod
    @contextmanager
    def capture(cls) -> Iterator[List[ModelCall]]:
        """Divert this thread's charges into the yielded list.

        Calls recorded while the context is active are appended to the list
        instead of any meter's ledger, and never sleep their latency — the
        caller is pricing work, not performing it.
        """
        frames = getattr(cls._capture, "frames", None)
        if frames is None:
            frames = cls._capture.frames = []
        buffer: List[ModelCall] = []
        frames.append(buffer)
        try:
            yield buffer
        finally:
            frames.pop()

    @classmethod
    def _capture_frame(cls) -> Optional[List[ModelCall]]:
        frames = getattr(cls._capture, "frames", None)
        return frames[-1] if frames else None

    def _append(self, call: ModelCall) -> ModelCall:
        frame = self._capture_frame()
        if frame is not None:
            frame.append(call)
            return call
        with self._lock:
            self._calls.append(call)
        if self.latency_scale > 0.0 and call.latency_s > 0.0:
            time.sleep(min(call.latency_s * self.latency_scale, self.max_sleep_s))
        return call

    # -- recording ------------------------------------------------------------
    def record(self, model: str, purpose: str, prompt_tokens: int,
               completion_tokens: int, latency_s: Optional[float] = None) -> ModelCall:
        """Record one call and return it."""
        if latency_s is None:
            latency_s = family_latency(model, prompt_tokens + completion_tokens)
        call = ModelCall(model=model, purpose=purpose,
                         prompt_tokens=max(0, int(prompt_tokens)),
                         completion_tokens=max(0, int(completion_tokens)),
                         latency_s=latency_s)
        return self._append(call)

    def record_batched(self, model: str, purpose: str, prompt_tokens: int,
                       completion_tokens: int, *, batch_size: int,
                       serial_tokens: int, members: int = 1,
                       latency_s: Optional[float] = None) -> BatchedModelCall:
        """Record one batched invocation (or one member's share of it)."""
        if latency_s is None:
            latency_s = family_latency(model, prompt_tokens + completion_tokens)
        call = BatchedModelCall(model=model, purpose=purpose,
                                prompt_tokens=max(0, int(prompt_tokens)),
                                completion_tokens=max(0, int(completion_tokens)),
                                latency_s=latency_s,
                                batch_size=max(1, int(batch_size)),
                                members=max(1, int(members)),
                                serial_tokens=max(0, int(serial_tokens)))
        self._append(call)
        return call

    def reset(self) -> None:
        """Forget all recorded calls."""
        with self._lock:
            self._calls = []

    # -- inspection -------------------------------------------------------------
    @property
    def calls(self) -> List[ModelCall]:
        """All recorded calls, in order."""
        with self._lock:
            return list(self._calls)

    def __len__(self) -> int:
        with self._lock:
            return len(self._calls)

    @property
    def total_tokens(self) -> int:
        """Total tokens across all calls."""
        return sum(c.total_tokens for c in self.calls)

    @property
    def total_latency_s(self) -> float:
        """Total synthetic latency across all calls."""
        return sum(c.latency_s for c in self.calls)

    @property
    def batch_tokens_saved(self) -> int:
        """Tokens batched invocations saved versus serial execution."""
        return sum(c.tokens_saved for c in self.calls
                   if isinstance(c, BatchedModelCall))

    def summary(self) -> CostSummary:
        """Aggregate over every call."""
        summary = CostSummary()
        for call in self.calls:
            summary.add(call)
        return summary

    def by_model(self) -> Dict[str, CostSummary]:
        """Aggregate per model name."""
        out: Dict[str, CostSummary] = {}
        for call in self.calls:
            out.setdefault(call.model, CostSummary()).add(call)
        return out

    def by_purpose(self) -> Dict[str, CostSummary]:
        """Aggregate per purpose tag."""
        out: Dict[str, CostSummary] = {}
        for call in self.calls:
            out.setdefault(call.purpose, CostSummary()).add(call)
        return out

    def tokens_for_purpose(self, purpose: str) -> int:
        """Total tokens charged against one purpose tag."""
        return sum(c.total_tokens for c in self.calls if c.purpose == purpose)

    def snapshot(self) -> int:
        """Return a marker (call count) for later :meth:`tokens_since`."""
        with self._lock:
            return len(self._calls)

    def tokens_since(self, marker: int) -> int:
        """Tokens recorded after a :meth:`snapshot` marker."""
        with self._lock:
            tail = self._calls[marker:]
        return sum(c.total_tokens for c in tail)

    def report(self) -> str:
        """Human-readable multi-line cost report."""
        lines = ["model call cost report", "----------------------"]
        for model, summary in sorted(self.by_model().items()):
            lines.append(
                f"{model:<24} calls={summary.calls:<4} tokens={summary.total_tokens:<8}"
                f" latency={summary.latency_s:.3f}s"
            )
        total = self.summary()
        lines.append(f"{'TOTAL':<24} calls={total.calls:<4} tokens={total.total_tokens:<8}"
                     f" latency={total.latency_s:.3f}s")
        return "\n".join(lines)
