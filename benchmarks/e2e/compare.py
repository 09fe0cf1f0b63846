"""Compare two sets of benchmark runs, metric by metric.

    python benchmarks/e2e/compare.py A.json[,A2.json...] B.json[,B2.json...]

Each side is one or more ``results.json`` files (comma-separated) of the same
commit.  For every workload x end-to-end metric the report gives each side's
median, the bound, and a verdict:

* ``regressed`` — B is worse than A by more than the bound;
* ``improved`` — B is better than A by more than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread of a side exceeds the bound, and it is
  not the case that every run of B lies on one side of every run of A.

Exit status is 1 if any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

if __package__ in (None, ""):     # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import spec, stats  # noqa: E402 - after the path set-up

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def side_spread(values: Sequence[float]) -> float:
    """Run-to-run spread of one side as a share of its median: the
    interquartile distance from four runs up, the range below that."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        return stats.spread(values)
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else float("inf")


def verdict(metric: spec.Metric, a: Sequence[float], b: Sequence[float]) -> Tuple[str, float]:
    """The verdict for B against A, and B's change in the worse direction as a
    share of A's median (negative = better)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    if median_a:
        worse_by = sign * (median_b - median_a) / abs(median_a)
    else:
        worse_by = sign * (median_b - median_a)     # absolute when the base is zero
    if sign > 0:
        all_worse, all_better = min(b) > max(a), max(b) < min(a)
    else:
        all_worse, all_better = max(b) < min(a), min(b) > max(a)
    noisy = max(side_spread(a), side_spread(b)) > metric.bound and len(a) + len(b) > 2
    if worse_by > metric.bound:
        return ("regressed" if all_worse or not noisy else "unresolved"), worse_by
    if worse_by < -metric.bound and worse_by < 0:
        return ("improved" if all_better or not noisy else "unresolved"), worse_by
    return ("unresolved" if noisy else "unchanged"), worse_by


def load(paths: str) -> List[Dict]:
    return [json.loads(Path(path).read_text()) for path in paths.split(",")]


def values_of(runs: List[Dict], workload: str, name: str) -> List[float]:
    found = []
    for run in runs:
        value = run["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
        if value is not None:
            found.append(float(value))
    return found


def compare(runs_a: List[Dict], runs_b: List[Dict]) -> List[Tuple]:
    rows = []
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.judged_metrics(workload):
            a = values_of(runs_a, workload, metric.name)
            b = values_of(runs_b, workload, metric.name)
            if not a or not b:
                continue
            outcome, worse_by = verdict(metric, a, b)
            rows.append((workload, metric, statistics.median(a), statistics.median(b),
                         worse_by, outcome))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':16s} {'metric':24s} {'A':>14s} {'B':>14s} {'unit':7s} "
          f"{'worse by':>9s} {'bound':>7s}  verdict")
    for workload, metric, a, b, worse_by, outcome in rows:
        print(f"{workload:16s} {metric.name:24s} {a:14.4f} {b:14.4f} {metric.unit:7s} "
              f"{worse_by * 100:8.2f}% {metric.bound * 100:6.1f}%  {outcome}")
    counts = {name: sum(1 for row in rows if row[5] == name) for name in VERDICTS}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
