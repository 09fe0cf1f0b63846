"""The seven workloads.  Each builds its service from generated inputs, runs a
measured window through the public API only, and checks what came back.

A workload has three phases the runner (``worker.py``) drives:

* ``prepare()`` — set-up that is not itself measured (corpus, ctor, load, warm-up);
* ``window(seconds)`` — the measured window, in whole passes/reps so that token
  and accuracy numbers do not depend on how many fit into ``seconds``;
* ``finish()`` — explanations on a persistent session, end-of-run checks, shutdown.

One primitive serves them all: a *fresh rep* builds a corpus, constructs a
service, loads the corpus and answers the six shapes cold.  Warm workloads run
a few of them as set-up repetitions and alternate their window between the
services they built; the cold workloads run them as their measured window.
Every fresh rep of a run uses its own corpus (``seed * 100 + rep``), so a run
averages over a few corpora, and every workload can report every end-to-end
metric.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import KathDBConfig, KathDBService, build_movie_corpus
from repro.data.workloads import ranking_accuracy, set_f1
from repro.sharding import ShardedService

from benchmarks.e2e import mix, spec, stats

pc = time.perf_counter
#: Stats-surface counters whose window deltas feed rates and regime checks.
GATEWAY_COUNTERS = ("cache_hits", "cache_misses", "evictions", "semantic_hits", "coalesced",
                    "batches", "batched_calls", "batch_token_savings")
SKILL_COUNTERS = ("exact_hits", "near_hits", "misses", "revalidations")
SCHED_COUNTERS = ("admitted", "shed", "expired")
EMPTY_SURFACES: Dict[str, Dict[str, Any]] = {"gateway": {}, "skills": {}, "obs": {}, "sched": {}}
EXPLAIN_TUPLE_CALLS = 1000
EXPLAIN_PIPELINE_CALLS = 50
#: Blocks a closed-loop window or the explain loop is cut into (stats.quiet_half).
BLOCKS = 8
#: Token and accuracy numbers of a rep-based window use its first reps only, so
#: they do not depend on how many reps fit into the window.
COUNTED_REPS = 3


def table_digest(table) -> List[Dict[str, Any]]:
    """Rows with per-process artifacts normalized away: ``lid`` dropped, blobs
    compared by URI (the rule of ``benchmarks/bench_sharded.table_digest``)."""
    digest = []
    for row in table:
        digest.append({key: getattr(value, "uri", value)
                       for key, value in dict(row).items() if key != "lid"})
    return digest


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def delta(before: Dict[str, Any], after: Dict[str, Any], names: Iterable[str],
          prefix: str) -> Dict[str, float]:
    return {f"{prefix}.{n}": (after.get(n, 0) or 0) - (before.get(n, 0) or 0) for n in names}


@dataclass
class Sample:
    """One request of a measured window."""

    key: str                    # shape name (+ "@rep" where reps differ in corpus), or request text
    latency_ms: float
    ok: bool
    block: int = 0              # pass or rep index (closed loop)
    tokens: int = 0
    prepared_hit: bool = False
    queue_ms: float = 0.0
    kind: str = "repeat"
    rate: int = 0               # open loop only
    sched_class: str = ""
    late_ms: float = 0.0        # open loop: send time minus due time
    facts: Dict[str, float] = field(default_factory=dict)   # per-response layer counts


@dataclass
class Window:
    """What one measured window produced."""

    samples: List[Sample] = field(default_factory=list)
    #: Per pass or rep: (block index, queries, seconds inside query()).
    passes: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Measured regions (perf_counter_ns): per-query layer numbers use the spans
    #: that start inside one; ``busy_s`` is the time spent in public calls there.
    intervals: List[Tuple[int, int]] = field(default_factory=list)
    busy_s: float = 0.0
    elapsed_s: float = 0.0      # open loop: first send -> last completion, gated phases
    leaf: Dict[str, Tuple[int, int]] = field(default_factory=dict)  # traced: metric -> (calls, ns)
    counters: Dict[str, float] = field(default_factory=dict)   # stats-surface deltas
    phases: Dict[int, Dict[str, float]] = field(default_factory=dict)  # open loop, per rate
    counted_blocks: Optional[int] = None    # token numbers use blocks below this
    #: Unmeasured queries whose tokens still count (restart_persist's cold pass).
    extra_queries: int = 0
    extra_tokens: int = 0

    def ok(self, gated_only: bool = True) -> List[Sample]:
        return [s for s in self.samples if s.ok and (not gated_only or s.rate != 80)]

    def counted(self) -> List[Sample]:
        """The ok samples token numbers are computed over."""
        limit = self.counted_blocks
        return [s for s in self.ok() if limit is None or s.block < limit]

    def add(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


class Tally:
    """Everything a run measures outside its windows, plus the check ledger."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []       # one per set-up repetition
        self.setup_once_s = 0.0              # set-up done once (warm-up passes)
        self.ttfa_s: List[float] = []
        self.ingest: List[Tuple[int, float, int]] = []   # (docs, load seconds, tokens)
        self.explain_tuple_ms: List[float] = []
        self.explain_pipeline_ms: List[float] = []
        self.lineage_hops: List[int] = []
        self.snapshot_ms: List[float] = []
        self.accuracy: List[float] = []      # one per scored fresh rep
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.facts: Dict[str, Any] = {}      # regime facts for results.json / README

    def check(self, passed: bool, message: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return passed


@dataclass
class Env:
    seed: int
    quick: bool
    work_dir: Path
    recorder: Any = None        # the traced run's probe.Recorder


class Base:
    """Shared machinery; subclasses say how to build the service and what a
    window is."""

    name = ""
    exact_tokens = True          # per-query tokens repeat exactly run to run
    boots = 3                    # set-up repetitions (fresh rep each, own corpus)
    warm_passes = 2              # further passes on every kept service
    keep_boots = True            # the window alternates between all booted services

    def __init__(self, env: Env):
        self.env = env
        docs = spec.WORKLOAD_BY_NAME[self.name].docs
        self.docs = min(docs, 24) if env.quick else docs
        if env.quick:
            self.boots = 1
        self.tally = Tally()
        self.expected_rows: Dict[str, Any] = {}
        self.service: Any = None             # the most recently built service
        self.kept: List[Any] = []            # the services a warm window alternates between
        self.last: Optional[Window] = None
        self.closers: List[Callable[[], None]] = []

    # -- building ----------------------------------------------------------------
    def config(self, **overrides: Any) -> KathDBConfig:
        return KathDBConfig(seed=self.env.seed, **overrides)

    def make_service(self) -> Any:
        return KathDBService(self.config())

    def build_corpus(self, rep: int) -> Any:
        return build_movie_corpus(size=self.docs, seed=self.env.seed * 100 + rep)

    def adopt(self, service: Any) -> None:
        """Make ``service`` the one later phases use; it is shut down on close."""
        self.service = service
        self.closers.append(service.shutdown)

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()

    @contextmanager
    def measured(self, window: Optional[Window]) -> Iterator[None]:
        """A measured region of ``window``: its interval and, when traced, the
        leaf-probe busy time inside it."""
        recorder = self.env.recorder
        if window is None:
            yield
            return
        before = recorder.leaf_totals() if recorder is not None else {}
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            window.intervals.append((start, time.perf_counter_ns()))
            if recorder is not None:
                for metric, (calls, busy) in recorder.leaf_totals().items():
                    calls0, busy0 = before.get(metric, (0, 0))
                    seen = window.leaf.get(metric, (0, 0))
                    window.leaf[metric] = (seen[0] + calls - calls0, seen[1] + busy - busy0)

    def fresh_rep(self, window: Optional[Window], rep: int,
                  make_service: Optional[Callable[[], Any]] = None,
                  corpus: Any = None, report_load: bool = True,
                  close_previous: bool = True) -> Tuple[Any, int]:
        """Corpus -> ctor -> load -> the six shapes cold, on a fresh service.

        With a ``window`` everything from the ctor on is measured; without one
        the whole rep is a set-up repetition.  A rep that is handed its
        ``corpus`` answers it again (not scored, no set-up sample);
        ``report_load=False`` keeps its load and first answer out of the
        ingest and time-to-first-answer numbers.  Returns the corpus and the
        tokens of the six answers.
        """
        if close_previous:
            self.close()
        gc.collect()
        t0 = pc()
        built = corpus is None
        if built:
            corpus = self.build_corpus(rep)
        corpus_s = pc() - t0
        with self.measured(window):
            t_ctor = pc()
            service = (make_service or self.make_service)()
            ctor_s = pc() - t_ctor
            self.adopt(service)
            tokens_before = service.total_tokens()
            t_load = pc()
            service.load_corpus(corpus)
            load_s = pc() - t_load
            load_tokens = service.total_tokens() - tokens_before
            first_ms, tokens = self.run_pass(service, window, block=rep, tag=f"@{rep}",
                                             corpus=corpus if built else None)
        if report_load:
            self.tally.ingest.append((self.docs, load_s, load_tokens))
            self.tally.ttfa_s.append(ctor_s + load_s + first_ms / 1000.0)
        if built:       # a measured rep's set-up is its corpus alone
            self.tally.setup_s.append(pc() - t0 if window is None else corpus_s)
        if window is not None:
            window.busy_s += ctor_s + load_s
            self.surface_delta(window, EMPTY_SURFACES, [service])
        return corpus, tokens

    # -- querying ----------------------------------------------------------------
    def digest(self, key: str, table: Any) -> Any:
        return table_digest(table)

    def observe(self, window: Optional[Window], key: str, response: Any, latency_ms: float,
                **extra: Any) -> Sample:
        """Check one response and file it (``window=None``: set-up, checks only)."""
        ok = self.tally.check(response.ok, f"{key}: {response.error}")
        sample = Sample(key=key, latency_ms=latency_ms, ok=ok, **extra)
        if ok:
            digest = self.digest(key, response.result.final_table)
            if digest != self.expected_rows.setdefault(key, digest):
                sample.ok = self.tally.check(False, f"{key}: rows differ from its first answer")
            sample.tokens = response.total_tokens
            sample.prepared_hit = response.prepared_hit
            sample.queue_ms = response.queue_ms
            sample.sched_class = response.sched_class or ""
            result = response.result
            gateway = response.gateway_stats or {}
            sample.facts = {
                "parser_tokens": response.prepare_tokens - response.optimize_tokens,
                "optimizer_tokens": response.optimize_tokens,
                "repairs": result.repairs_performed(),
                "operators": len(result.records),
                "rows_in": sum(record.rows_in for record in result.records),
                "gateway_charged": gateway.get("tokens_charged", 0),
                "running": (response.scheduler_stats or {}).get("running", 0),
            }
        if window is not None:
            window.samples.append(sample)
        return sample

    def run_pass(self, service: Any, window: Optional[Window], block: int = 0, tag: str = "",
                 corpus: Any = None) -> Tuple[float, int]:
        """The six shapes once; returns the first one's latency (ms) and the
        tokens of the pass.  With a ``corpus`` the answers are scored against
        its ground truth."""
        busy = 0.0
        tokens = 0
        first_ms = 0.0
        scores = []
        for index, shape in enumerate(mix.SHAPES):
            request = mix.make_request(shape)
            start = pc()
            response = service.query(request)
            elapsed = pc() - start
            busy += elapsed
            if index == 0:
                first_ms = elapsed * 1000.0
            sample = self.observe(window, shape.name + tag, response, elapsed * 1000.0,
                                  block=block)
            tokens += sample.tokens
            if corpus is not None and sample.ok:
                metric = ranking_accuracy if shape.name in mix.RANKED else set_f1
                scores.append(metric(response.result.titles(), shape.expected_titles(corpus)))
        if scores:
            self.tally.accuracy.append(statistics.fmean(scores))
        if window is not None:
            window.passes.append((block, len(mix.SHAPES), busy))
            window.busy_s += busy
        return first_ms, tokens

    def surfaces(self, services: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
        """The public stats surfaces of ``services``, summed (read before and
        after a window)."""
        total: Dict[str, Dict[str, Any]] = {"gateway": {}, "skills": {}, "obs": {"spans": 0},
                                            "sched": {}}

        def accumulate(into: Dict[str, Any], values: Dict[str, Any], names: Iterable[str]) -> None:
            for name in names:
                into[name] = into.get(name, 0) + (values.get(name, 0) or 0)

        for service in services:
            started = pc()
            shards = getattr(service, "shards", None)
            snapshots = ([s.metrics_snapshot() for s in shards] if shards
                         else [service.metrics_snapshot()])
            self.tally.snapshot_ms.append((pc() - started) * 1000.0 / len(snapshots))
            total["obs"]["spans"] += sum(
                value for snap in snapshots
                for name, value in snap["counters"].items() if name.startswith("spans."))
            accumulate(total["gateway"], service.gateway_stats(), GATEWAY_COUNTERS)
            accumulate(total["skills"], getattr(service, "skill_stats", lambda: None)() or {},
                       SKILL_COUNTERS)
            accumulate(total["sched"], service.scheduler_stats() or {}, SCHED_COUNTERS)
        return total

    def surface_delta(self, window: Window, before: Dict[str, Dict[str, Any]],
                      services: Sequence[Any]) -> None:
        after = self.surfaces(services)
        window.add(delta(before["gateway"], after["gateway"], GATEWAY_COUNTERS, "gateway"))
        window.add(delta(before["skills"], after["skills"], SKILL_COUNTERS, "skills"))
        window.add(delta(before["obs"], after["obs"], ("spans",), "obs"))
        window.add(delta(before["sched"], after["sched"], SCHED_COUNTERS, "sched"))

    def explain(self, service: Any) -> None:
        """Explanations on a persistent session's flagship result."""
        session = service.session(name="e2e-explain")
        response = session.query(mix.make_request(mix.SHAPES[0]))
        if not self.tally.check(response.ok, f"explain session: {response.error}"):
            return
        result = response.result
        lids = [row["lid"] for row in result.rows()[:5] if row.get("lid") is not None]
        if not self.tally.check(bool(lids), "flagship result has no lids to explain"):
            return
        calls = EXPLAIN_TUPLE_CALLS // (10 if self.env.quick else 1)
        gc.collect()
        for index in range(calls):
            start = pc()
            explanation = session.explain_tuple(result, lids[index % len(lids)])
            self.tally.explain_tuple_ms.append((pc() - start) * 1000.0)
        self.tally.check(bool(explanation.describe()), "empty tuple explanation")
        for _ in range(EXPLAIN_PIPELINE_CALLS):
            start = pc()
            text = session.explain_pipeline(result)
            self.tally.explain_pipeline_ms.append((pc() - start) * 1000.0)
        self.tally.check(bool(text), "empty pipeline explanation")
        self.tally.lineage_hops = [len(session.lineage.trace(lid)) for lid in lids]

    # -- phases: the warm, closed-loop default --------------------------------------
    def prepare(self) -> None:
        for rep in range(self.boots):
            self.fresh_rep(None, rep, close_previous=not self.keep_boots)
            self.kept = (self.kept if self.keep_boots else []) + [(self.service, f"@{rep}")]
        start = pc()
        for _ in range(self.warm_passes):
            for service, tag in self.kept:
                self.run_pass(service, None, tag=tag)
        self.tally.setup_once_s += pc() - start

    def window(self, seconds: float) -> Window:
        """One client, closed loop: rounds of one pass of the six shapes on each
        kept service (each has its own corpus) until time is up."""
        window = Window()
        services = [service for service, _tag in self.kept]
        before = self.surfaces(services)
        gc.collect()
        started = pc()
        rounds = 0
        with self.measured(window):
            while True:
                for service, tag in self.kept:
                    self.run_pass(service, window, block=rounds, tag=tag)
                rounds += 1
                if pc() - started >= seconds:
                    break
        self.surface_delta(window, before, services)
        self.last = window
        return window

    def finish(self) -> None:
        self.explain(self.service)
        self.regime(self.last.counters)
        self.close()

    def regime(self, counters: Dict[str, float]) -> None:
        """Workload-specific assertions about the regime the last window ran in."""


def hit_rate(counters: Dict[str, float]) -> float:
    lookups = counters.get("gateway.cache_hits", 0) + counters.get("gateway.cache_misses", 0)
    return counters.get("gateway.cache_hits", 0) / lookups if lookups else 0.0


class WarmFit(Base):
    name = "warm_fit"
    boots = 6

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.facts["exact_hit_rate"] = hit_rate(counters)
        self.tally.check(counters["gateway.evictions"] == 0, "warm window evicted gateway entries")
        self.tally.check(counters["gateway.cache_misses"] == 0,
                         "warm window missed the gateway cache")
        self.tally.check(all(s.prepared_hit for s in self.last.samples),
                         "warm window compiled a plan")


class WarmRows(WarmFit):
    name = "warm_rows"
    boots = 3


class CacheChurn(Base):
    name = "cache_churn"
    boots = 2

    def make_service(self) -> Any:
        entries = 8 if self.env.quick else spec.CHURN_CACHE_ENTRIES
        return KathDBService(self.config(gateway_cache_entries=entries))

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.facts["exact_hit_rate"] = hit_rate(counters)
        self.tally.check(counters["gateway.evictions"] > 0, "churn window evicted nothing")
        # warm_rows (same stream and seed) hits on every lookup.
        self.tally.check(hit_rate(counters) < 1.0, "churn window hit on every lookup")


class RepWindow(Base):
    """Workloads whose window is a series of fresh reps (one block each)."""

    def prepare(self) -> None:
        pass

    def rep(self, window: Window, rep: int) -> None:
        self.fresh_rep(window, rep)

    def window(self, seconds: float) -> Window:
        window = Window(counted_blocks=COUNTED_REPS)
        started = pc()
        count = 0
        while True:
            self.rep(window, count)
            count += 1
            if pc() - started >= seconds:
                break
        self.last = window
        return window


class IngestCold(RepWindow):
    """Load and the six cold queries are the window; set-up is the corpus alone."""

    name = "ingest_cold"

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.check(not any(s.prepared_hit for s in self.last.samples),
                         "a cold query hit the prepared cache")
        self.tally.check(all(s.tokens > 0 for s in self.last.samples),
                         "a cold query cost no tokens")


class RestartPersist(RepWindow):
    """Cold pass (set-up) then a new service on the same file-backed paths."""

    name = "restart_persist"

    def service_at(self, root: Path) -> Any:
        return KathDBService(self.config(enable_skill_store=True,
                                         skill_store_path=root / "skills",
                                         gateway_cache_path=root / "gateway"))

    def rep(self, window: Window, rep: int) -> None:
        root = self.env.work_dir / f"restart-{len(self.tally.setup_s)}"
        # Cold pass: a set-up repetition whose rows the restart must repeat; it
        # is not what this workload's users load with or wait for.
        corpus, cold_tokens = self.fresh_rep(None, rep, lambda: self.service_at(root),
                                             report_load=False)
        if rep < COUNTED_REPS:
            # Tokens are reported over the whole rep, cold pass included: the
            # restart alone swings ~20 % with the corpus' poster mix.
            window.extra_queries += len(mix.SHAPES)
            window.extra_tokens += cold_tokens
        t_down = pc()
        self.close()
        self.tally.facts["cold_shutdown_s"] = pc() - t_down
        self.tally.facts["skill_store_bytes"] = tree_bytes(root / "skills")
        self.tally.facts["gateway_store_bytes"] = tree_bytes(root / "gateway")
        self.fresh_rep(window, rep, lambda: self.service_at(root), corpus=corpus)

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.facts["skill_exact_hits"] = counters["skills.exact_hits"]
        self.tally.check(counters["skills.exact_hits"] > 0, "restart reused no stored skill")
        self.tally.check(counters["gateway.cache_hits"] > 0,
                         "restart hit nothing in the persisted gateway cache")


class ShardedScatter(RepWindow):
    """Two partition shards: load, then five passes of the six shapes per rep.
    Rows must equal a single service on the same corpus (checked on rep 0)."""

    name = "sharded_scatter"
    PASSES = 5

    def make_service(self) -> Any:
        return ShardedService(self.config(), shards=2, placement="partition")

    def prepare(self) -> None:
        # The single-service reference answers rep 0's corpus first, so the
        # sharded answers of that rep are compared with it (harness work, not
        # set-up); later reps have their own corpora and check self-consistency.
        self.ordered_rows: Dict[str, Any] = {}
        with KathDBService(self.config()) as reference:
            reference.load_corpus(self.build_corpus(0))
            self.run_pass(reference, None, tag="@0")
            self.reference_tables = {
                name: table_digest(reference.catalog.table(name))
                for name in sorted(reference.catalog.table_names())}

    def rep(self, window: Window, rep: int) -> None:
        self.fresh_rep(window, rep)
        with self.measured(window):
            for _ in range(self.PASSES - 1):
                self.run_pass(self.service, window, block=rep, tag=f"@{rep}")
        if rep == 0:
            for name, expected in self.reference_tables.items():
                self.tally.check(table_digest(self.service.scan(name)) == expected,
                                 f"merged scan of {name} differs from the single service")

    def digest(self, key: str, table: Any) -> Any:
        rows = table_digest(table)
        shape = key.split("@")[0]
        if shape == mix.SHAPES[0].name:
            # Each shard normalizes recency over its own year range, so the
            # recency-weighted ranking is not the single service's (README,
            # "Findings").  Compare that shape as a set, without the two
            # columns the normalization reaches.
            rows = sorted(({k: v for k, v in row.items()
                            if k not in ("recency_score", "final_score")} for row in rows),
                          key=lambda row: row["movie_id"])
        elif shape not in mix.RANKED:
            # The filter shapes ask for a set.  The coordinator's merge takes
            # the shards' filter outputs for rankings when a score column
            # happens to be non-increasing in each, and then reorders the
            # merged rows (README, "Findings"): a fact, not a failure.
            if rows != self.ordered_rows.setdefault(key, rows):
                facts = self.tally.facts
                facts["set_answers_reordered"] = facts.get("set_answers_reordered", 0) + 1
            rows = sorted(rows, key=lambda row: row["movie_id"])
        return rows

    def explain(self, service: Any) -> None:
        # Sessions (and lineage) live on the shards; explain on the first one.
        super().explain(service.shards[0])

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.facts["exact_hit_rate"] = hit_rate(counters)


class TenantsOverlap(Base):
    """Open loop at ascending rates; latency is completion minus due time."""

    name = "tenants_overlap"
    exact_tokens = False        # concurrent requests coalesce and batch by timing
    warm_passes = 0
    keep_boots = False
    #: Shares of the window per rate: near-equal request counts keep p90
    #: supported at 20 req/s and the saturated 80 req/s phase short.
    PHASE_SHARES = (0.5, 0.3, 0.2)

    def make_service(self) -> Any:
        return KathDBService(self.config(simulate_model_latency=1.0))

    def prepare(self) -> None:
        super().prepare()
        self.windows_run = 0
        self.novel_sent: set = set()
        # Repeats and paraphrases answer with the last-built service's rows.
        kept = self.kept[-1][1]
        for key in [k for k in self.expected_rows if k.endswith(kept)]:
            self.expected_rows[key[:-len(kept)]] = self.expected_rows[key]

    def window(self, seconds: float) -> Window:
        phase_seconds = [seconds * share for share in self.PHASE_SHARES]
        # A second window (the traced one) gets its own schedule, and none of
        # the novel requests the first one sent.
        schedule = mix.open_loop_schedule(self.env.seed * 1000 + self.windows_run,
                                          spec.OPEN_RATES, phase_seconds, self.novel_sent)
        self.windows_run += 1
        self.novel_sent.update(a.nl_query for a in schedule if a.kind == "novel")
        window = Window()
        before = self.surfaces([self.service])
        gc.collect()
        with self.measured(window):
            for rate, span in zip(spec.OPEN_RATES, phase_seconds):
                arrivals = [a for a in schedule if a.rate == rate]
                window.phases[rate] = self.open_phase(window, rate, span, arrivals)
        self.surface_delta(window, before, [self.service])
        self.last = window
        return window

    def open_phase(self, window: Window, rate: int, span: float,
                   arrivals: Sequence[mix.Arrival]) -> Dict[str, float]:
        """Send ``arrivals`` on their fixed schedule, then wait for the backlog."""
        requests = [mix.arrival_request(a, spec.OPEN_DEADLINE_MS) for a in arrivals]
        done_at: List[float] = [0.0] * len(arrivals)
        sent_at: List[float] = [0.0] * len(arrivals)
        futures = []
        pending = threading.Semaphore(0)

        def completed(index: int) -> Callable[[Any], None]:
            def callback(_future: Any) -> None:
                done_at[index] = pc()
                pending.release()
            return callback

        origin = pc() + 0.01
        for index, (arrival, request) in enumerate(zip(arrivals, requests)):
            wait = origin + arrival.due_s - pc()
            if wait > 0:
                time.sleep(wait)
            sent_at[index] = pc()
            future = self.service.submit(request)
            future.add_done_callback(completed(index))
            futures.append(future)
        last_send = pc()
        finished = all([pending.acquire(timeout=30.0) for _ in futures])
        ended = pc()
        counts = {"sent": len(arrivals), "ok": 0, "shed": 0, "failed": 0,
                  "drain_s": ended - last_send, "offered_s": span}
        gated = rate != 80       # 80 req/s saturates: reported, never counted as failed
        if gated:
            window.elapsed_s += ended - origin
        self.tally.check(finished or not gated, f"r{rate}: backlog never drained")
        for index, (arrival, future) in enumerate(zip(arrivals, futures)):
            if not future.done():
                counts["failed"] += 1
                continue
            response = future.result()
            due = origin + arrival.due_s
            latency_ms = (done_at[index] - due) * 1000.0
            extra = dict(kind=arrival.kind, rate=rate, late_ms=(sent_at[index] - due) * 1000.0)
            key = mix.SHAPES[arrival.shape].name if arrival.shape is not None else arrival.nl_query
            if gated:
                sample = self.observe(window, key, response, latency_ms, **extra)
            else:
                sample = Sample(key=key, latency_ms=latency_ms, ok=response.ok,
                                tokens=response.total_tokens if response.ok else 0,
                                queue_ms=response.queue_ms,
                                sched_class=response.sched_class or "", **extra)
                window.samples.append(sample)
            if sample.ok:
                counts["ok"] += 1
                if gated and arrival.kind == "novel":
                    self.tally.check(not response.prepared_hit and response.total_tokens > 0,
                                     f"novel request was not cold: {arrival.nl_query}")
            elif response.shed_reason:
                counts["shed"] += 1
            else:
                counts["failed"] += 1
        return counts

    def regime(self, counters: Dict[str, float]) -> None:
        self.tally.facts["coalesced"] = counters["gateway.coalesced"]
        self.tally.facts["phases"] = {str(rate): counts
                                      for rate, counts in self.last.phases.items()}


REGISTRY: Dict[str, Callable[[Env], Base]] = {
    cls.name: cls for cls in (IngestCold, WarmFit, WarmRows, CacheChurn, TenantsOverlap,
                              RestartPersist, ShardedScatter)}


# ---------------------------------------------------------------------------
# Window -> end-to-end numbers
# ---------------------------------------------------------------------------
def blocks_of(indices: Sequence[int]) -> Dict[int, int]:
    """Pass/rep index -> block: at most BLOCKS equal groups, in time order."""
    ordered = sorted(set(indices))
    groups = min(BLOCKS, len(ordered))
    return {index: position * groups // len(ordered) for position, index in enumerate(ordered)}


def closed_loop_numbers(window: Window) -> Tuple[float, float]:
    """(query_p50_ms, queries_per_s) of a closed-loop window.

    Per block: the median latency of each request shape, averaged over the
    shapes (they have equal shares of the mix), and queries / seconds inside
    ``query()``.  The window reports the quiet half of its blocks.
    """
    block_of = blocks_of([index for index, _n, _busy in window.passes])
    latencies: Dict[int, Dict[str, List[float]]] = {}
    for sample in window.ok():
        by_shape = latencies.setdefault(block_of[sample.block], {})
        by_shape.setdefault(sample.key, []).append(sample.latency_ms)
    p50s = [statistics.fmean(statistics.median(v) for v in by_shape.values())
            for by_shape in latencies.values()]
    totals: Dict[int, List[float]] = {}
    for index, queries, busy in window.passes:
        total = totals.setdefault(block_of[index], [0, 0.0])
        total[0] += queries
        total[1] += busy
    rates = [queries / busy for queries, busy in totals.values()]
    return stats.quiet_half(p50s), stats.quiet_half(rates, lower_is_quiet=False)


def explain_p50(values: Sequence[float]) -> float:
    size = max(1, len(values) // BLOCKS)
    return stats.quiet_half([statistics.median(values[i:i + size])
                             for i in range(0, len(values) - size + 1, size)])


def open_loop_numbers(window: Window) -> Dict[str, float]:
    """Per-rate p90 from due time, and the highest rate that meets the limits."""
    out: Dict[str, float] = {}
    best = 0
    for rate, counts in sorted(window.phases.items()):
        latencies = [s.latency_ms for s in window.samples if s.rate == rate and s.ok]
        p90 = stats.quantile(latencies, 90.0) if latencies else float("inf")
        out[f"open_p90_ms_r{rate}"] = p90
        failed_share = 1.0 - counts["ok"] / counts["sent"] if counts["sent"] else 1.0
        if (p90 <= spec.OPEN_P90_LIMIT_MS and failed_share <= spec.OPEN_FAILED_LIMIT
                and counts["drain_s"] <= spec.OPEN_DRAIN_LIMIT_S):
            best = max(best, rate)
    out["max_rate_ok_qps"] = float(best)
    late = [s.late_ms for s in window.samples if s.rate in (20, 40)]
    out["bench.generator_late_ms_p99"] = stats.quantile(late, 99.0) if late else 0.0
    return out


def end_to_end(workload: Base, window: Window, peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric (and the workload's extras) from one window."""
    tally = workload.tally
    samples = window.ok()
    latencies = [s.latency_ms for s in samples]
    if window.passes:
        p50, rate = closed_loop_numbers(window)
    else:       # open loop: from due time; completions over first send -> last completion
        by_kind: Dict[str, List[float]] = {}
        for sample in samples:
            by_kind.setdefault(sample.kind, []).append(sample.latency_ms)
        # The median of each request kind, weighted by its share of the mix:
        # the plain median sits on the edge of the repeat cluster and jumps.
        p50 = sum(len(v) * statistics.median(v) for v in by_kind.values()) / len(samples)
        rate = len(samples) / window.elapsed_s
    counted = window.counted()
    reps = COUNTED_REPS if window.counted_blocks else len(tally.ingest)
    out = {
        "setup_s": statistics.median(tally.setup_s) + tally.setup_once_s,
        "query_p50_ms": p50,
        "queries_per_s": rate,
        "tokens_per_query": (sum(s.tokens for s in counted) + window.extra_tokens)
        / (len(counted) + window.extra_queries),
        "ingest_docs_per_s": stats.quiet_half([d / s for d, s, _t in tally.ingest],
                                              lower_is_quiet=False),
        "ingest_tokens_per_doc": statistics.fmean(t / d for d, _s, t in tally.ingest[:reps]),
        "time_to_first_answer_s": stats.quiet_half(tally.ttfa_s),
        "explain_p50_ms": explain_p50(tally.explain_tuple_ms),
        "peak_rss_mb": peak_rss_mb,
        "answer_accuracy": statistics.fmean(tally.accuracy[:reps]),
        "failed_share": tally.failed / tally.attempted,
    }
    if stats.supported(len(latencies), 95.0):
        out["query_p95_ms"] = stats.quantile(latencies, 95.0)
    if window.phases:
        out.update(open_loop_numbers(window))
    return out
