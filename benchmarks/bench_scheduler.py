"""Scheduler benchmark: hog-tenant isolation and fair-share throughput.

Measures what per-tenant fair sharing buys over one FIFO queue.  One hog
tenant floods the service with a deep backlog and three light tenants each
submit a couple of requests *after* the flood; every request is its own
concurrent session.  The baseline arm (recorded under ``flat``) runs the
same scheduler with the same workers but bills every request to one tenant
id: deficit round-robin over a single tenant is FIFO, so the light
requests queue behind the hog's entire backlog and their end-to-end
latency is the whole makespan.  Billed to their own tenants, the scheduler
interleaves them, bounding the light tenants' time in queue by the hog's
*share* rather than its backlog.

Two committed ratios:

* ``fairness_gain`` — light-tenant p95 end-to-end latency, one-tenant FIFO
  over per-tenant fair share.  The acceptance bar is >= 2.0 (fair-share
  p95 at most half the FIFO arm's).
* ``speedup`` — fair-share throughput over fully serial submission.
  Fairness must not cost throughput: the floor is the 3.6x concurrency
  floor held in ``BENCH_concurrency.json``.

Simulated model calls sleep their synthetic latency (the gateway and
vectorized execution are off, matching the concurrency benchmark) so the
worker pool overlaps real waits; the prepared-query cache is warm in every
arm so compilation never skews the latency percentiles.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scheduler.py [--quick]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_scheduler.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    KathDBConfig,
    KathDBService,
    QueryRequest,
    ScriptedUser,
)
from repro.data.mmqa import build_movie_corpus
from repro.data.workloads import (
    FLAGSHIP_CLARIFICATION,
    FLAGSHIP_CORRECTION,
    FLAGSHIP_QUERY,
)
from repro.utils.timer import Timer

try:
    from benchmarks import gate
except ImportError:  # running as a plain script from benchmarks/
    import gate

RESULT_PATH = Path(__file__).parent / "BENCH_scheduler.json"
#: Sleep each model call's synthetic latency times this factor.  Pinned to
#: the same 1x the concurrency benchmark uses so this benchmark's speedup is
#: directly comparable to the 3.6x floor BENCH_concurrency.json committed.
LATENCY_SCALE = 1.0
HOG = "hog"
LIGHT_TENANTS = ("light-a", "light-b", "light-c")
#: The tenant id every request of the FIFO baseline arm is billed to.
FIFO_TENANT = "fifo"


def make_request(tenant: str) -> QueryRequest:
    """One flagship request billed to ``tenant`` (own scripted user)."""
    return QueryRequest(nl_query=FLAGSHIP_QUERY,
                        user=ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                          [FLAGSHIP_CORRECTION]),
                        tenant_id=tenant)


def make_service(corpus_size: int, workers: int,
                 latency_scale: float) -> KathDBService:
    service = KathDBService(KathDBConfig(seed=7, monitor_enabled=False,
                                         explore_variants=False,
                                         enable_model_gateway=False,
                                         enable_vectorized_execution=False,
                                         service_max_workers=workers,
                                         simulate_model_latency=latency_scale))
    service.load_corpus(build_movie_corpus(size=corpus_size, seed=7))
    warmup = service.query(make_request(HOG))
    assert warmup.ok, warmup.error
    return service


def submission_plan(total: int, light_tenants: Tuple[str, ...],
                    per_light: int = 2) -> List[str]:
    """Tenant labels in submission order: the hog's flood first, then the
    light tenants trickling in behind it."""
    light = [tenant for tenant in light_tenants for _ in range(per_light)]
    return [HOG] * (total - len(light)) + light


def run_concurrent(service: KathDBService, plan: List[str],
                   bill_to: Optional[str] = None,
                   ) -> Tuple[float, Dict[str, List[float]], List]:
    """Submit the whole plan at once; per-request end-to-end latency is
    measured caller-side (submit -> future resolved), so time spent queued
    counts.  ``bill_to`` bills every request to that one tenant id while
    latencies stay keyed by the plan's tenant labels."""
    latencies: Dict[str, List[float]] = {tenant: [] for tenant in set(plan)}
    futures = []
    timer = Timer()
    with timer:
        for tenant in plan:
            submitted = time.perf_counter()
            future = service.submit(make_request(bill_to or tenant))
            # Stamp completion from the dispatching thread itself: reading
            # the futures sequentially afterwards would charge every early
            # finisher for the whole makespan.
            future.add_done_callback(
                lambda _f, t=tenant, s=submitted: latencies[t].append(
                    (time.perf_counter() - s) * 1000.0))
            futures.append(future)
        responses = [future.result(timeout=600) for future in futures]
    assert all(r.ok for r in responses), \
        [r.error for r in responses if not r.ok]
    return timer.elapsed, latencies, responses


def p95(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[int(0.95 * (len(ordered) - 1))]


def light_values(latencies: Dict[str, List[float]]) -> List[float]:
    return [value for tenant, values in latencies.items()
            if tenant != HOG for value in values]


def run_benchmark(corpus_size: int = 20, requests: int = 32, workers: int = 4,
                  latency_scale: float = LATENCY_SCALE,
                  light_tenants: Tuple[str, ...] = LIGHT_TENANTS) -> Dict:
    """Serial vs one-tenant FIFO vs fair-share arms; returns the recorded
    metrics."""
    plan = submission_plan(requests, light_tenants)

    sched_service = make_service(corpus_size, workers,
                                 latency_scale=latency_scale)
    # Serial baseline (one request in flight ever) on the scheduler service,
    # so the speedup ratio includes any admission overhead twice over.
    serial_timer = Timer()
    with serial_timer:
        serial = [sched_service.query(make_request(tenant)) for tenant in plan]
    assert all(r.ok for r in serial)

    sched_wall, sched_lat, sched_responses = run_concurrent(sched_service, plan)
    sched_stats = sched_service.scheduler_stats()
    queue_p95 = p95([r.queue_ms for r in sched_responses])

    fifo_wall, fifo_lat, fifo_responses = run_concurrent(
        sched_service, plan, bill_to=FIFO_TENANT)

    reference = serial[0].result.rows()
    identical = all(r.result.rows() == reference
                    for r in serial + sched_responses + fifo_responses)

    serial_qps = requests / max(serial_timer.elapsed, 1e-9)
    sched_qps = requests / max(sched_wall, 1e-9)
    fifo_qps = requests / max(fifo_wall, 1e-9)
    sched_light_p95 = p95(light_values(sched_lat))
    fifo_light_p95 = p95(light_values(fifo_lat))
    record = {
        "workload": "flagship query, one hog tenant + "
                    f"{len(light_tenants)} light tenants",
        "corpus_size": corpus_size,
        "requests": requests,
        "hog_requests": plan.count(HOG),
        "light_requests": len(plan) - plan.count(HOG),
        "workers": workers,
        "latency_scale": latency_scale,
        "serial_s": round(serial_timer.elapsed, 4),
        "serial_qps": round(serial_qps, 3),
        "flat": {
            "wall_s": round(fifo_wall, 4),
            "qps": round(fifo_qps, 3),
            "light_p95_ms": round(fifo_light_p95, 1),
            "hog_p95_ms": round(p95(fifo_lat[HOG]), 1),
        },
        "scheduler": {
            "wall_s": round(sched_wall, 4),
            "qps": round(sched_qps, 3),
            "light_p95_ms": round(sched_light_p95, 1),
            "hog_p95_ms": round(p95(sched_lat[HOG]), 1),
            "queue_p95_ms": round(queue_p95, 1),
            "admitted": sched_stats["admitted"],
            "completed": sched_stats["completed"],
            "shed": sched_stats["shed"],
            "expired": sched_stats["expired"],
        },
        "fairness_gain": round(fifo_light_p95 / max(sched_light_p95, 1e-9), 3),
        "speedup": round(sched_qps / serial_qps, 3),
        "row_identical": identical,
    }
    sched_service.shutdown()
    return record


def save(record: Dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def report(record: Dict) -> str:
    return (f"[scheduler] {record['requests']} requests "
            f"({record['hog_requests']} hog / {record['light_requests']} light), "
            f"{record['workers']} workers: light p95 "
            f"{record['flat']['light_p95_ms']:.0f} ms one-tenant FIFO vs "
            f"{record['scheduler']['light_p95_ms']:.0f} ms fair-share "
            f"-> {record['fairness_gain']:.2f}x fairer, "
            f"{record['speedup']:.2f}x over serial, "
            f"row-identical={record['row_identical']}")


def test_scheduler_isolates_light_tenants_without_losing_throughput():
    """The committed contract: fairness >= 2x, throughput >= the 3.6x
    concurrency floor, rows identical across all arms."""
    record = run_benchmark()
    save(record)
    print("\n" + report(record))
    failures = gate.evaluate("scheduler", record, shape="full")
    assert not failures, "\n".join(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=20, help="corpus size")
    parser.add_argument("--requests", type=int, default=32,
                        help="total concurrent sessions")
    parser.add_argument("--workers", type=int, default=4, help="worker threads")
    parser.add_argument("--scale", type=float, default=LATENCY_SCALE,
                        help="simulated model latency scale")
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus and batch (CI smoke run)")
    args = parser.parse_args()
    light = LIGHT_TENANTS
    if args.quick:
        args.size, args.requests, args.workers = 12, 12, 2
        light = LIGHT_TENANTS[:2]
    record = run_benchmark(corpus_size=args.size, requests=args.requests,
                           workers=args.workers, latency_scale=args.scale,
                           light_tenants=light)
    print(report(record))
    if not args.quick:
        # Smoke runs validate via the exit code only: the committed record
        # holds the full workload, which a quick run must not overwrite.
        save(record)
        print(f"wrote {RESULT_PATH}")
    failures = gate.evaluate("scheduler", record,
                             shape="quick" if args.quick else "full")
    if failures:
        print("\n".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
