"""One workload, one mode, in this process: the ``BENCHMARK.json`` contract.

``--trace 0`` runs set-up, the measured window and the end-of-run checks with
nothing installed and reports the end-to-end metrics.  ``--trace 1`` installs
the probes of ``probe.py`` around set-up, runs a short untraced reference
window, then the traced window, and reports the per-layer metrics; the
reference window is what tracing overhead, row equality and token equality
are judged against.

The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import spec, stats, workloads

HERE = Path(__file__).resolve().parent
#: Share of ``--seconds`` the traced run spends on its untraced reference window.
REFERENCE_SHARE = 0.3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for <workload>.<mode>.json and trace_<workload>.json")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (24 docs, one set-up); bounds mean nothing")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the workload; returns the detail record (the result line is a subset)."""
    started = time.perf_counter()
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(seed=args.seed, quick=args.quick, work_dir=work_dir)
    workload = workloads.REGISTRY[args.workload](env)
    detail: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "traced": bool(args.trace),
                              "quick": args.quick, "docs": workload.docs}
    units = {entry[0]: entry[1] for entry in spec.PER_LAYER}
    units.update({m.name: m.unit for m in spec.END_TO_END})
    try:
        if args.trace:
            from benchmarks.e2e import layers
            metrics = layers.traced_run(workload, args.seconds, REFERENCE_SHARE, detail,
                                        args.out)
            declared = spec.PER_LAYER_NAMES
        else:
            workload.prepare()
            window = workload.window(args.seconds)
            workload.finish()
            metrics = workloads.end_to_end(workload, window, peak_rss_mb())
            detail["latency"] = stats.summarize([s.latency_ms for s in window.ok()])
            declared = spec.END_TO_END_NAMES
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()
    tally = workload.tally
    detail.update({
        "metrics": metrics, "units": units,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "facts": tally.facts, "wall_s": time.perf_counter() - started,
    })
    detail["line"] = {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        mode = "traced" if args.trace else "untraced"
        (args.out / f"{args.workload}.{mode}.json").write_text(
            json.dumps({k: v for k, v in detail.items() if k != "line"}, indent=1) + "\n")
    return detail


def main(argv: Optional[List[str]] = None) -> int:
    detail = run(parse_args(argv))
    for message in detail["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(detail["line"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
