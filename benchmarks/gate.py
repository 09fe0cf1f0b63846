"""The shared benchmark gate: one source of truth for CI pass/fail floors.

Every performance benchmark in this directory commits a ``BENCH_*.json``
record of its full-size workload.  Until this module existed, each
benchmark's ``main()`` (and its CI step) hand-rolled its own inline
threshold checks — four slightly different copies of "fail if the ratio
regressed".  They now live here, as data:

* :data:`GATES` maps each benchmark to the dotted-path floors its
  **committed record** must hold (the full-size workload's contract) and
  the floors a **quick re-run** must hold (the smaller CI smoke shape,
  with correspondingly looser ratios).
* ``python benchmarks/gate.py --quick`` — the single CI entry point —
  validates every committed record against its full floors *and* re-runs
  every benchmark's quick shape, failing the build on any violated floor.
* The benchmarks' own ``main()``/pytest entry points delegate their
  pass/fail decision to :func:`evaluate`, so a floor changed here changes
  everywhere at once and a fifth benchmark lands by adding one
  :class:`GateSpec`.

Run it standalone::

    PYTHONPATH=src python benchmarks/gate.py --quick        # CI mode
    PYTHONPATH=src python benchmarks/gate.py                # records only
    PYTHONPATH=src python benchmarks/gate.py --only semantic --quick
"""

from __future__ import annotations

import argparse
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).parent


def _bench(module: str):
    """Import a sibling benchmark module under either layout.

    ``python benchmarks/gate.py`` puts this directory on ``sys.path`` (plain
    module names); pytest imports us as the ``benchmarks`` package.
    """
    package = __package__ or ""
    if package:
        return importlib.import_module(f"{package}.{module}")
    return importlib.import_module(module)


@dataclass
class Check:
    """One floor: the value at ``path`` must respect the bound(s).

    ``path`` is a dotted path into the record (``gateway.token_reduction``).
    ``minimum`` is inclusive unless ``strict`` (then the value must exceed
    it); ``equals`` pins an exact expected value (booleans, zero counts).
    """

    path: str
    minimum: Optional[float] = None
    strict: bool = False
    equals: Any = None

    def describe(self) -> str:
        if self.equals is not None:
            return f"{self.path} == {self.equals!r}"
        op = ">" if self.strict else ">="
        return f"{self.path} {op} {self.minimum}"

    def violation(self, record: Dict[str, Any]) -> Optional[str]:
        """None when satisfied, else a human-readable failure line."""
        value: Any = record
        for part in self.path.split("."):
            if not isinstance(value, dict) or part not in value:
                return f"{self.path}: missing from record"
            value = value[part]
        if self.equals is not None:
            if value != self.equals:
                return f"{self.path}: expected {self.equals!r}, got {value!r}"
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{self.path}: expected a number, got {value!r}"
        if self.strict:
            if value <= self.minimum:
                return f"{self.path}: {value} must exceed {self.minimum}"
        elif value < self.minimum:
            return f"{self.path}: {value} regressed below floor {self.minimum}"
        return None


@dataclass
class GateSpec:
    """One benchmark's contract with CI."""

    name: str
    record_file: str
    #: Floors the committed full-size record must hold.
    committed: List[Check]
    #: Floors a quick (CI smoke shape) re-run must hold.
    quick: List[Check]
    #: Re-runs the quick shape and returns its record (imports lazily so
    #: reading floors never pays for a benchmark import).
    quick_run: Optional[Callable[[], Dict[str, Any]]] = field(repr=False,
                                                              default=None)

    @property
    def record_path(self) -> Path:
        return BENCH_DIR / self.record_file


def _quick_concurrency() -> Dict[str, Any]:
    bench = _bench("bench_concurrent_sessions")
    return bench.run_benchmark(corpus_size=12, requests=4, jobs=4)


def _quick_gateway() -> Dict[str, Any]:
    bench = _bench("bench_gateway")
    # 4 requests over 2 workers: the off arm needs two latency waves, the
    # on arm one execution plus hits — a structural throughput gap (one
    # wave either way would leave the gate to scheduler noise).
    return {
        "gateway": bench.run_benchmark(corpus_size=12, requests=4, jobs=2),
        "batching": bench.run_batching_benchmark(corpus_size=12, requests=4,
                                                 jobs=4),
    }


def _quick_vectorized() -> Dict[str, Any]:
    bench = _bench("bench_vectorized")
    return bench.run_benchmark(corpus_size=bench.QUICK_CORPUS)


def _quick_semantic() -> Dict[str, Any]:
    bench = _bench("bench_semantic")
    return bench.run_benchmark(corpus_size=bench.QUICK_CORPUS)


def _quick_fao_store() -> Dict[str, Any]:
    bench = _bench("bench_fao_store")
    return bench.run_benchmark(corpus_size=bench.QUICK_CORPUS)


def _quick_columnar() -> Dict[str, Any]:
    bench = _bench("bench_columnar")
    return bench.run_benchmark(n_rows=bench.QUICK_ROWS)


def _quick_observability() -> Dict[str, Any]:
    bench = _bench("bench_observability")
    # Sub-10ms reps make the 5% full-size bar scheduler-noise-bound; the
    # quick shape keeps the structural checks (tokens, rows, chrome export)
    # strict and loosens only the wall budget.
    return bench.run_benchmark(corpus_size=8, requests=8, reps=3, jobs=2,
                               wall_budget_pct=30.0)


def _quick_scheduler() -> Dict[str, Any]:
    bench = _bench("bench_scheduler")
    # 12 requests over 2 workers (8 hog / 4 light): six FIFO waves in the
    # one-tenant arm, so the hog's backlog is still what the light tenants would
    # wait behind — the structural gap survives the smaller shape.
    return bench.run_benchmark(corpus_size=12, requests=12, workers=2,
                               light_tenants=bench.LIGHT_TENANTS[:2])


def _quick_sharded() -> Dict[str, Any]:
    bench = _bench("bench_sharded")
    return bench.run_benchmark(corpus_size=bench.QUICK_CORPUS,
                               shard_counts=bench.QUICK_SHARDS)


GATES: Dict[str, GateSpec] = {
    "concurrency": GateSpec(
        name="concurrency",
        record_file="BENCH_concurrency.json",
        committed=[
            Check("speedup", minimum=2.0),
            Check("row_identical", equals=True),
        ],
        quick=[
            Check("speedup", minimum=2.0),
            Check("row_identical", equals=True),
        ],
        quick_run=_quick_concurrency,
    ),
    "gateway": GateSpec(
        name="gateway",
        record_file="BENCH_gateway.json",
        committed=[
            Check("gateway.token_reduction", minimum=2.0),
            Check("gateway.throughput_gain", minimum=1.0, strict=True),
            Check("gateway.row_identical", equals=True),
            Check("batching.token_reduction", minimum=1.5),
            Check("batching.row_identical", equals=True),
        ],
        quick=[
            Check("gateway.token_reduction", minimum=2.0),
            Check("gateway.throughput_gain", minimum=1.0, strict=True),
            Check("gateway.row_identical", equals=True),
            Check("batching.token_reduction", minimum=1.2),
            Check("batching.row_identical", equals=True),
        ],
        quick_run=_quick_gateway,
    ),
    "vectorized": GateSpec(
        name="vectorized",
        record_file="BENCH_vectorized.json",
        committed=[
            Check("token_reduction", minimum=2.0),
            Check("row_identical", equals=True),
            Check("vectorized.gateway_stats.batches", minimum=0, strict=True),
        ],
        quick=[
            Check("token_reduction", minimum=1.5),
            Check("row_identical", equals=True),
            Check("vectorized.gateway_stats.batches", minimum=0, strict=True),
        ],
        quick_run=_quick_vectorized,
    ),
    "semantic": GateSpec(
        name="semantic",
        record_file="BENCH_semantic.json",
        committed=[
            # The default-on contract: at the shipped threshold the tier
            # must serve real near-hits with *zero* observed false accepts
            # against exact execution, leave every result row untouched,
            # and the ANN index must beat the linear scan >= 5x at the full
            # workload's cache size.
            Check("accuracy.false_accepts_at_default", equals=0),
            Check("arms.ann.semantic.near_hits", minimum=0, strict=True),
            Check("row_identical", equals=True),
            Check("lookup.ann_speedup", minimum=5.0),
            Check("token_savings.ann", minimum=1.5),
        ],
        quick=[
            Check("accuracy.false_accepts_at_default", equals=0),
            Check("arms.ann.semantic.near_hits", minimum=0, strict=True),
            Check("row_identical", equals=True),
            # The quick corpus stores far fewer signatures, so the linear
            # scan it beats is shorter — the structural gap stays, the
            # ratio shrinks.
            Check("lookup.ann_speedup", minimum=2.0),
            Check("token_savings.ann", minimum=1.5),
        ],
        quick_run=_quick_semantic,
    ),
    "fao_store": GateSpec(
        name="fao_store",
        record_file="BENCH_fao_store.json",
        committed=[
            # The acceptance bar: a warm-restart prepare spends <= 10% of the
            # cold run's codegen+profiling tokens (>= 10x reduction) with
            # row-identical output, every operator is stored cold and
            # exact-hit warm (and across corpora with the same shape), and a
            # poisoned store is demoted + regenerated without failing.
            Check("warm_token_reduction", minimum=10.0),
            Check("row_identical", equals=True),
            Check("cold.skills.stores", minimum=0, strict=True),
            Check("warm.skills.exact_hits", minimum=0, strict=True),
            Check("warm.skills.misses", equals=0),
            Check("cross_corpus.skills.exact_hits", minimum=0, strict=True),
            Check("poisoned.row_identical", equals=True),
            Check("poisoned.skills.demotions", minimum=0, strict=True),
            Check("poisoned.skills.stores", minimum=0, strict=True),
        ],
        quick=[
            # The reduction is corpus-size independent (codegen is priced per
            # operator, revalidation per sample row), so the quick shape
            # holds the same floors.
            Check("warm_token_reduction", minimum=10.0),
            Check("row_identical", equals=True),
            Check("cold.skills.stores", minimum=0, strict=True),
            Check("warm.skills.exact_hits", minimum=0, strict=True),
            Check("warm.skills.misses", equals=0),
            Check("cross_corpus.skills.exact_hits", minimum=0, strict=True),
            Check("poisoned.row_identical", equals=True),
            Check("poisoned.skills.demotions", minimum=0, strict=True),
            Check("poisoned.skills.stores", minimum=0, strict=True),
        ],
        quick_run=_quick_fao_store,
    ),
    "columnar": GateSpec(
        name="columnar",
        record_file="BENCH_columnar.json",
        committed=[
            # The acceptance bar: column-at-a-time pure-relational operators
            # >= 1.5x over the transcribed row-dict legacy arm at full size,
            # bit-identical rows, and O(columns) forks whose untouched
            # vectors stay physically shared (first write unshares exactly
            # the touched column).
            Check("operator_speedup", minimum=1.5),
            Check("row_identical", equals=True),
            Check("fork.speedup", minimum=50.0),
            Check("fork.all_columns_shared", equals=True),
            Check("fork.touched_column_unshared", equals=True),
            Check("fork.untouched_columns_still_shared", equals=True),
        ],
        quick=[
            # The smaller corpus shrinks the absolute gap but the structural
            # checks stay strict; only the ratios loosen.
            Check("operator_speedup", minimum=1.2),
            Check("row_identical", equals=True),
            Check("fork.speedup", minimum=20.0),
            Check("fork.all_columns_shared", equals=True),
            Check("fork.touched_column_unshared", equals=True),
            Check("fork.untouched_columns_still_shared", equals=True),
        ],
        quick_run=_quick_columnar,
    ),
    "observability": GateSpec(
        name="observability",
        record_file="BENCH_observability.json",
        committed=[
            # The acceptance bar: tracing on costs <= 5% wall and <= 1%
            # tokens (spans never call models, so the observed token
            # overhead is exactly 0), leaves every result row untouched,
            # and the exported Chrome trace has at least one slice.
            Check("within_wall_budget", equals=True),
            Check("within_token_budget", equals=True),
            Check("row_identical", equals=True),
            Check("chrome_trace.events", minimum=0, strict=True),
            Check("chrome_trace.valid_json", equals=True),
            Check("tracing_on.spans_recorded", minimum=0, strict=True),
        ],
        quick=[
            # Same structural floors; the quick record itself was produced
            # with a looser wall budget (see _quick_observability).
            Check("within_wall_budget", equals=True),
            Check("within_token_budget", equals=True),
            Check("row_identical", equals=True),
            Check("chrome_trace.events", minimum=0, strict=True),
            Check("chrome_trace.valid_json", equals=True),
            Check("tracing_on.spans_recorded", minimum=0, strict=True),
        ],
        quick_run=_quick_observability,
    ),
    "scheduler": GateSpec(
        name="scheduler",
        record_file="BENCH_scheduler.json",
        committed=[
            # The acceptance bar: with one hog tenant flooding 4 workers at
            # 32 concurrent sessions, the light tenants' p95 end-to-end
            # latency under per-tenant fair share is at most half the
            # one-tenant FIFO arm's (fairness_gain >= 2), total throughput
            # keeps the 3.6x floor of BENCH_concurrency.json, nothing is shed
            # (the default queue bounds fit the workload), and every arm
            # returns identical rows.
            Check("fairness_gain", minimum=2.0),
            Check("speedup", minimum=3.6),
            Check("row_identical", equals=True),
            Check("scheduler.shed", equals=0),
            Check("scheduler.expired", equals=0),
        ],
        quick=[
            # 2 workers / 12 requests: fewer FIFO waves for the light
            # tenants to jump, so the fairness ratio shrinks with the
            # shape; throughput tops out near the 2-worker ideal.
            Check("fairness_gain", minimum=1.3),
            Check("speedup", minimum=1.6),
            Check("row_identical", equals=True),
            Check("scheduler.shed", equals=0),
            Check("scheduler.expired", equals=0),
        ],
        quick_run=_quick_scheduler,
    ),
    "sharded": GateSpec(
        name="sharded",
        record_file="BENCH_sharded.json",
        committed=[
            # The acceptance bar: population scattered over 4 shared-nothing
            # shards >= 1.7x over the same sharding layer at 1 shard, merged
            # scans row-identical (every column but the per-process lineage
            # lid) to an unsharded service, and a file-backed gateway cache
            # serving exact hits — with a real token cut — across a full
            # service restart.
            Check("population.speedup_4", minimum=1.7),
            Check("population.speedup_2", minimum=1.2),
            Check("row_identical", equals=True),
            Check("restart.warm_exact_hits", minimum=0, strict=True),
            Check("restart.restored_entries", minimum=0, strict=True),
            Check("restart.token_ratio", minimum=1.2),
        ],
        quick=[
            # The quick shape runs 1/2 shards on a smaller corpus: fewer
            # batched model waits to overlap, so only the 2-shard ratio is
            # held (looser); the structural floors stay strict.
            Check("population.speedup_2", minimum=1.2),
            Check("row_identical", equals=True),
            Check("restart.warm_exact_hits", minimum=0, strict=True),
            Check("restart.restored_entries", minimum=0, strict=True),
            Check("restart.token_ratio", minimum=1.2),
        ],
        quick_run=_quick_sharded,
    ),
}


def evaluate(name: str, record: Dict[str, Any],
             shape: str = "full") -> List[str]:
    """Every violated floor for one benchmark record (empty = pass).

    ``shape`` selects the floor set: ``"full"`` for full-size workloads
    (what the committed records hold), ``"quick"`` for CI smoke shapes.
    """
    spec = GATES[name]
    checks = spec.quick if shape == "quick" else spec.committed
    failures = []
    for check in checks:
        violation = check.violation(record)
        if violation is not None:
            failures.append(f"[{name}/{shape}] {violation}")
    return failures


def check_committed(name: str) -> List[str]:
    """Validate one committed record against its full-size floors."""
    spec = GATES[name]
    if not spec.record_path.exists():
        return [f"[{name}] committed record missing: {spec.record_file}"]
    try:
        record = json.loads(spec.record_path.read_text(encoding="utf-8"))
    except ValueError as error:
        return [f"[{name}] unreadable record {spec.record_file}: {error}"]
    return evaluate(name, record, shape="full")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="additionally re-run every benchmark's quick "
                             "shape and gate it (the CI mode)")
    parser.add_argument("--only", action="append", default=[],
                        metavar="NAME", choices=sorted(GATES),
                        help="gate only the named benchmark(s); repeatable")
    args = parser.parse_args(argv)
    names = args.only or list(GATES)

    failures: List[str] = []
    for name in names:
        spec = GATES[name]
        committed_failures = check_committed(name)
        failures.extend(committed_failures)
        state = "FAIL" if committed_failures else "ok"
        print(f"[gate] {name}: committed {spec.record_file} {state}")
        if args.quick:
            record = spec.quick_run()
            quick_failures = evaluate(name, record, shape="quick")
            failures.extend(quick_failures)
            state = "FAIL" if quick_failures else "ok"
            print(f"[gate] {name}: quick re-run {state}")

    if failures:
        print("\n".join(["", "benchmark gate failures:"] + failures))
        return 1
    print(f"[gate] all {len(names)} benchmark gate(s) passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
