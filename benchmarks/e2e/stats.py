"""Small statistics shared by the harness, compare.py and the tests."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least MIN_BEYOND beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile ``count`` samples support, or None."""
    best = None
    for q in LADDER:
        if supported(count, q):
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median plus the highest supported percentile, with the sample count."""
    if not values:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    tail_q = tail_percentile(len(values))
    return {"n": len(values), "p50": statistics.median(values), "tail_q": tail_q,
            "tail": quantile(values, tail_q) if tail_q is not None else None}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else float("inf")


def quiet_half(values: Sequence[float], lower_is_quiet: bool = True) -> float:
    """Median of the quieter half of ``values`` (one value per block of a window).

    The benchmark box is shared: interference comes in bursts of seconds and
    only ever adds time.  A window is therefore cut into equal blocks, each
    block is summarized on its own, and the window reports the median of its
    quieter half — an estimate that holds as long as half the blocks are
    undisturbed, where a plain median over a 10 s window moves by 10-20 %.
    """
    if not values:
        raise ValueError("quiet_half of no blocks")
    ordered = sorted(values, reverse=not lower_is_quiet)
    return statistics.median(ordered[:(len(ordered) + 1) // 2])


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
#: One span: (span id, parent id or 0, start_ns, end_ns, leaf_ns).  ``leaf_ns``
#: is busy time of leaf probes inside the span, attributed to their own layer.
SpanTimes = Tuple[int, int, int, int, int]


def covered(intervals: Iterable[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[SpanTimes]) -> Dict[int, int]:
    """Span id -> self time: duration minus the part its children cover.

    Children are linked by parent id whatever thread they ran on; the parts of
    children that overlap each other, or that fall outside the parent (work
    handed to another thread that outlives the call), are counted once or not
    at all.  Leaf-probe busy time inside the span is subtracted too.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _sid, parent, start, end, _leaf in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, int] = {}
    for sid, _parent, start, end, leaf in spans:
        kids = children.get(sid)
        cover = covered(kids, start, end) if kids else 0
        result[sid] = max(0, end - start - cover - leaf)
    return result
