"""Run every workload untraced, then traced, each in its own subprocess.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME ...] [--seed N] [--out DIR]

Prints every metric by name with its unit and bound, checks outputs, and
writes ``results.json`` plus one ``trace_<workload>.json`` per workload into
``--out``.  ``--list`` prints the declared metrics, ``--quick`` is a smoke run
(small corpora, bounds mean nothing), ``--selftest`` checks that every probe
of ``probe.py`` fires on some workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import spec

HERE = Path(__file__).resolve().parent
#: Seconds of the traced run's windows in the full invocation.
TRACED_SECONDS = 4.0
QUICK_SECONDS = 1.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                        help="run only these workloads (repeatable)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"untraced window (default {spec.RUN_SECONDS}, quick {QUICK_SECONDS})")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--list", action="store_true", help="print the declared metrics and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="traced quick runs only; fail if a probe never fires")
    return parser.parse_args(argv)


def bound_text(metric: spec.Metric) -> str:
    if metric.bound == 0:
        return "must not " + ("rise" if metric.better == "lower" else "drop")
    sign = "+" if metric.better == "lower" else "-"
    return f"{sign}{metric.bound * 100:g} %"


def list_metrics() -> None:
    print("End-to-end metrics (untraced run; bound = how much worse counts as a regression):")
    for metric in spec.END_TO_END + spec.EXTRA:
        where = ", ".join(metric.workloads) if metric.workloads else "every workload"
        print(f"  {metric.name:26s} {metric.unit:7s} {bound_text(metric):14s} {where}")
        print(f"      {metric.what}")
    print("Per-layer metrics (traced run; no bound):")
    for name, unit, better, what in spec.PER_LAYER:
        print(f"  {name:38s} {unit:7s} better {better:6s} {what}")
    print("Workloads:")
    for workload in spec.WORKLOADS:
        print(f"  {workload.name:16s} {workload.docs:4d} docs  deviations: {workload.deviations}")
        print(f"      {workload.why}")


def run_worker(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
               out: Path) -> Optional[Dict[str, Any]]:
    """One workload in its own process; returns its detail record or None."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
               "--out", str(out)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{workload}: worker exited {done.returncode}\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return None
    mode = "traced" if traced else "untraced"
    return json.loads((out / f"{workload}.{mode}.json").read_text())


def print_run(detail: Dict[str, Any]) -> None:
    mode = "traced" if detail["traced"] else "untraced"
    latency = detail["latency"]
    tail = (f", p{latency['tail_q']:g} {latency['tail']:.1f} ms"
            if (latency["tail_q"] or 0) > 50 else "")
    print(f"== {detail['workload']} [{mode}] {detail['docs']} docs, seed {detail['seed']}, "
          f"{detail['seconds']:g} s window: {latency['n']} requests, median "
          f"{latency['p50']:.1f} ms{tail}; "
          f"checks {detail['attempted'] - detail['failed']}/{detail['attempted']} ok, "
          f"{detail['wall_s']:.1f} s wall")
    bounds = {m.name: bound_text(m) for m in spec.END_TO_END + spec.EXTRA}
    for name, value in detail["metrics"].items():
        if detail["traced"] and not value:
            continue        # layers that did nothing on this workload
        bound = "" if detail["traced"] else bounds.get(name, "")
        print(f"  {name:38s} {value:14.4f} {detail['units'].get(name, ''):7s} {bound}")
    for message in detail["failures"]:
        print(f"  CHECK FAILED: {message}")


def selftest(details: List[Dict[str, Any]]) -> int:
    fired: Dict[str, int] = {}
    errors: List[str] = []
    for detail in details:
        for name, calls in detail["probe_calls"].items():
            fired[name] = fired.get(name, 0) + calls
        errors.extend(detail["probe_errors"])
    silent = sorted(name for name, calls in fired.items() if not calls)
    print(f"selftest: {len(fired) - len(silent)}/{len(fired)} probes fired, "
          f"{len(errors)} could not be installed")
    for name in silent:
        print(f"  never fired: {name}")
    for error in sorted(set(errors)):
        print(f"  not installed: {error}")
    return 1 if silent or errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    quick = args.quick or args.selftest
    names = args.workload or list(spec.WORKLOAD_NAMES)
    seconds = args.seconds or (QUICK_SECONDS if quick else float(spec.RUN_SECONDS))
    traced_seconds = QUICK_SECONDS if quick else min(seconds, TRACED_SECONDS)
    started = time.perf_counter()
    results: Dict[str, Any] = {"seed": args.seed, "seconds": seconds, "quick": quick,
                               "workloads": {}}
    failed = 0
    traced_details = []
    for traced in ((True,) if args.selftest else (False, True)):
        for name in names:
            detail = run_worker(name, args.seed, traced_seconds if traced else seconds,
                                traced, quick, args.out)
            if detail is None:
                failed += 1
                continue
            print_run(detail)
            failed += detail["failed"]
            entry = results["workloads"].setdefault(name, {"docs": detail["docs"]})
            entry["per_layer" if traced else "end_to_end"] = detail["metrics"]
            entry["traced_checks" if traced else "checks"] = {
                "attempted": detail["attempted"], "failed": detail["failed"],
                "failures": detail["failures"]}
            if traced:
                traced_details.append(detail)
            else:
                entry["facts"] = detail["facts"]
    # The larger-than-cache twin must hit less than the workload it mirrors.
    rows, churn = (results["workloads"].get(n, {}).get("facts", {}).get("exact_hit_rate")
                   for n in ("warm_rows", "cache_churn"))
    if rows is not None and churn is not None and not churn < rows:
        print(f"CHECK FAILED: cache_churn hit rate {churn} is not below warm_rows's {rows}")
        failed += 1
    results["wall_s"] = time.perf_counter() - started
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.out / 'results.json'} ({results['wall_s']:.0f} s wall, "
          f"{failed} failed checks)")
    if args.selftest:
        return selftest(traced_details)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
