"""The benchmark's declared surface: workloads, metrics, units, bounds.

``BENCHMARK.json`` is the literal copy the driver reads; ``test_harness.py``
asserts the two agree.  Names are normative for later perf/simplicity PRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Seconds one run measures (``BENCHMARK.json: run_seconds``) and default seed.
RUN_SECONDS = 10
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    why: str            # one line, copied into BENCHMARK.json
    deviations: str     # config deviations from KathDBConfig(seed=seed)


WORKLOADS: Tuple[Workload, ...] = (
    Workload("ingest_cold", 300,
             "fresh service per rep: load 300 docs then six cold queries; models, population, "
             "parser, optimizer and codegen do the work and every cache is bypassed",
             "none"),
    Workload("warm_fit", 48,
             "48 docs fully warmed (~470 gateway keys vs 4096 entries), closed loop over six "
             "shapes; fixed per-query overhead dominates, models and parser do nothing",
             "none"),
    Workload("warm_rows", 300,
             "300 docs warmed (~2k gateway keys fit 4096 entries, zero evictions); same path as "
             "warm_fit but per-row costs dominate and fixed overhead is noise",
             "none"),
    Workload("cache_churn", 300,
             "same corpus and stream as warm_rows with a 32-entry gateway cache (the stream's "
             "irreducible ~130 exact keys exceed it); miss, batched execute, insert, evict",
             "gateway_cache_entries=32"),
    Workload("tenants_overlap", 48,
             "open loop at 20/40/80 req/s, three tenants, repeat/paraphrase/novel mix, simulated "
             "model latency; sched queues, coalescing, batch windows and overlap matter",
             "simulate_model_latency=1.0"),
    Workload("restart_persist", 200,
             "file-backed skill store and gateway cache: cold pass then a new service on the "
             "same paths; persistence read after write, guards key-scheme and codec changes",
             "enable_skill_store=True, skill_store_path, gateway_cache_path"),
    Workload("sharded_scatter", 200,
             "ShardedService with 2 partition shards: scatter, merge, rebase and the duplicated "
             "request front-end do the work; rows must equal a single service",
             "ShardedService(shards=2, placement='partition')"),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: The one sizing deviation of ``cache_churn``.  At 300 docs the semantic tier
#: (512 entries) absorbs the per-row predicates, and what is left for the exact
#: tier is ~130 distinct keys per pass: any capacity from 128 up settles into
#: an all-hit state, 64 entries thrash in a cycle whose cost swings 3x from
#: seed to seed, and 32 entries miss on nearly every exact lookup, pass after
#: pass (the regime of 2000 docs against the shipped 4096 entries, at a sixth
#: of the cost).
CHURN_CACHE_ENTRIES = 32
#: Open-loop rates of ``tenants_overlap`` and the limits ``max_rate_ok_qps`` applies.
OPEN_RATES = (20, 40, 80)
OPEN_P90_LIMIT_MS = 300.0
OPEN_FAILED_LIMIT = 0.01
OPEN_DRAIN_LIMIT_S = 1.0
OPEN_DEADLINE_MS = 2000.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str         # "lower" | "higher"
    bound: float        # share of the reference median it may worsen by
    what: str
    workloads: Tuple[str, ...] = ()   # () = every workload


#: End-to-end metrics every workload reports untraced (BENCHMARK.json: end_to_end).
#: The driver judges a bound against runs with ten different seeds, so each is
#: sized to the seed-to-seed spread of the noisiest workload (README, "Bounds").
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "everything before the measured window: corpus gen, ctor, and load/warm-up/cold "
           "pass where those are not themselves measured (median over set-up repetitions)"),
    Metric("query_p50_ms", "ms", "lower", 0.25,
           "median client-side latency of query() per request shape, averaged over the mix "
           "(per request kind and from due time on the open loop); quiet half of the blocks"),
    Metric("queries_per_s", "1/s", "higher", 0.25,
           "ok queries / time spent in the public call; quiet half of the window's blocks"),
    Metric("tokens_per_query", "tokens", "lower", 0.25,
           "sum of QueryResponse.total_tokens / ok queries in the window"),
    Metric("ingest_docs_per_s", "docs/s", "higher", 0.25,
           "docs / load_corpus wall (quiet half of the run's loads)"),
    Metric("ingest_tokens_per_doc", "tokens", "lower", 0.06,
           "total_tokens() delta across load_corpus / docs"),
    Metric("time_to_first_answer_s", "s", "lower", 0.25,
           "ctor start -> first ok response (quiet half of the run's fresh services)"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "ru_maxrss of the workload process"),
    Metric("answer_accuracy", "ratio", "higher", 0.2,
           "mean ranking_accuracy / set_f1 of the six shapes against corpus ground truth"),
)

#: End-to-end metrics the driver does not gate: the ones only some workloads can
#: measure, and explain_p50_ms, an 80 us timing that moves 25 % from process to
#: process on the shared box.  The suite reports them, compare.py judges them,
#: the driver sees them as per-layer values.
EXTRA: Tuple[Metric, ...] = (
    Metric("explain_p50_ms", "ms", "lower", 0.25,
           "median Session.explain_tuple on the flagship result's top-5 lids"),
    Metric("query_p95_ms", "ms", "lower", 0.25,
           "p95 latency in the window (needs >= 200 samples)", ("warm_fit",)),
    Metric("open_p90_ms_r20", "ms", "lower", 0.25,
           "p90 latency from due time at 20 req/s", ("tenants_overlap",)),
    Metric("open_p90_ms_r40", "ms", "lower", 0.25,
           "p90 latency from due time at 40 req/s", ("tenants_overlap",)),
    Metric("max_rate_ok_qps", "1/s", "higher", 0.0,
           "highest of 20/40/80 req/s with p90 <= 300 ms, failed share <= 1 %, backlog "
           "drained within 1 s of the last send", ("tenants_overlap",)),
    Metric("failed_share", "ratio", "lower", 0.0,
           "(errors + shed + row/ledger/regime check failures) / attempted"),
)

_MS = "ms"
#: Per-layer metrics of the traced run: (name, unit, better, what).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    # api
    ("api.session_build_ms", _MS, "lower",
     "Session.__init__ incl. Lexicon.copy, ModelSuite.fork, QueryStack.build, per query"),
    ("api.prepare_ms", _MS, "lower", "PreparedQueryCache.get_or_build self time per query"),
    ("api.prepared_hit_rate", "ratio", "higher", "prepared hits / queries in the window"),
    ("api.frontend_ms", _MS, "lower",
     "service query()/submit() self time per query (minus Session work)"),
    ("api.ctor_ms", _MS, "lower", "KathDBService.__init__ self time per service built"),
    # parser
    ("parser.parse_ms", _MS, "lower", "NLParser.parse self time per query"),
    ("parser.plan_ms", _MS, "lower",
     "LogicalPlanGenerator.generate/revise + PlanVerifier.verify per query"),
    ("parser.tokens_per_query", "tokens", "lower", "prepare_tokens - optimize_tokens per query"),
    ("parser.clarifications_per_query", "count", "lower",
     "InteractionChannel.ask_clarification calls per query"),
    # optimizer / fao / skills
    ("optimizer.optimize_ms", _MS, "lower", "QueryOptimizer.optimize self time per query"),
    ("optimizer.tokens_per_query", "tokens", "lower", "optimize_tokens per query"),
    ("fao.codegen_ms", _MS, "lower", "Coder.generate/repair self time per query"),
    ("fao.profile_ms", _MS, "lower", "Profiler.profile self time per query"),
    ("fao.critic_ms", _MS, "lower", "Critic.review/review_and_repair self time per query"),
    ("fao.repairs_per_query", "count", "lower", "QueryResult.repairs_performed() per query"),
    ("skills.lookup_ms", _MS, "lower", "SkillStore.lookup self time per query"),
    ("skills.revalidate_ms", _MS, "lower",
     "RevalidationHarness.rebuild/revalidate self time per query"),
    ("skills.exact_hit_rate", "ratio", "higher", "skill exact hits / (hits + misses)"),
    ("skills.store_bytes_per_doc", "bytes", "lower", "bytes under skill_store_path / docs"),
    # executor
    ("executor.execute_ms", _MS, "lower", "ExecutionEngine.execute self time per query"),
    ("executor.monitor_ms", _MS, "lower", "ExecutionMonitor.inspect self time per query"),
    ("executor.monitor_tokens_per_query", "tokens", "lower",
     "tokens charged inside ExecutionMonitor.inspect per query"),
    ("executor.fao_execute_ms", _MS, "lower", "GeneratedFunction.execute self time per query"),
    ("executor.operators_per_query", "count", "lower", "execution records per query"),
    # gateway
    ("gateway.fingerprint_ms", _MS, "lower",
     "top-level canonicalize/request_key_from_canonical busy time per query"),
    ("gateway.fingerprint_calls", "count", "lower",
     "top-level canonicalize/request_key_from_canonical calls per query"),
    ("gateway.lookup_ms", _MS, "lower",
     "ExactResultCache.get + SemanticNearCache.search busy time per query"),
    ("gateway.invoke_ms", _MS, "lower",
     "ModelGateway.invoke + GatewayBatchClient.invoke self time per query"),
    ("gateway.exact_hit_rate", "ratio", "higher", "exact cache hits / lookups in the window"),
    ("gateway.semantic_hit_rate", "ratio", "higher",
     "semantic hits / exact-cache misses in the window"),
    ("gateway.evictions_per_query", "count", "lower", "exact cache evictions per query"),
    ("gateway.batch_size_mean", "count", "higher", "batched calls / batches in the window"),
    ("gateway.batch_tokens_saved_per_query", "tokens", "higher", "batching discount per query"),
    ("gateway.coalesced_share", "ratio", "higher", "coalesced followers / gateway requests"),
    ("gateway.batch_wait_ms", _MS, "lower", "MicroBatcher.submit -> result per query"),
    ("gateway.persist_write_ms", _MS, "lower",
     "GatewayCacheStore.put_exact/put_semantic self time per doc loaded"),
    ("gateway.persist_load_ms", _MS, "lower",
     "load_exact/load_semantic/restore_persisted self time per restart"),
    ("gateway.persist_bytes_per_doc", "bytes", "lower", "bytes under gateway_cache_path / docs"),
    # models
    ("models.calls_per_query", "count", "lower", "simulated model method calls per query"),
    ("models.busy_ms", _MS, "lower", "self time inside simulated model methods per query"),
    ("models.sim_wait_ms", _MS, "lower",
     "CostMeter.record* self time (the simulated sleep) per query"),
    ("models.tokens_per_query", "tokens", "lower", "gateway-charged tokens per query"),
    # relational
    ("relational.operator_ms", _MS, "lower",
     "hash_join/sort/project self time per query (the operators FAO bodies call)"),
    ("relational.rows_in_per_query", "count", "lower", "sum of operator rows_in per query"),
    ("relational.cell_get_calls", "count", "lower", "RowView.get / RowView[...] calls per query"),
    ("relational.cell_get_ms", _MS, "lower", "per-cell accessor busy time per query"),
    ("relational.fork_ms", _MS, "lower", "ColumnStore.fork / Table.fork busy time per query"),
    # datamodel
    ("datamodel.load_base_ms_per_doc", _MS, "lower",
     "ViewPopulator.load_corpus self time (base tables) per doc"),
    ("datamodel.populate_scene_ms_per_doc", _MS, "lower",
     "ViewPopulator.populate_scene_views self time per doc"),
    ("datamodel.populate_text_ms_per_doc", _MS, "lower",
     "ViewPopulator.populate_text_views self time per doc"),
    ("datamodel.lineage_records_per_query", "count", "lower",
     "LineageStore.record* calls per query"),
    ("datamodel.lineage_ms", _MS, "lower", "LineageStore.record* busy time per query"),
    # explain
    ("explain.tuple_ms", _MS, "lower", "Explainer.explain_tuple self time per call"),
    ("explain.pipeline_ms", _MS, "lower", "Explainer.explain_pipeline self time per call"),
    ("explain.lineage_hops", "count", "lower",
     "mean LineageStore.trace length of the explained lids"),
    # sched
    ("sched.submit_ms", _MS, "lower", "FairShareScheduler.submit self time per query"),
    ("sched.queue_ms_p50", _MS, "lower", "median QueryResponse.queue_ms in the window"),
    ("sched.queue_ms_p90", _MS, "lower", "p90 QueryResponse.queue_ms in the window"),
    ("sched.queue_ms_p90_r20", _MS, "lower", "p90 queue_ms at 20 req/s"),
    ("sched.queue_ms_p90_r40", _MS, "lower", "p90 queue_ms at 40 req/s"),
    ("sched.queue_ms_p90_r80", _MS, "lower", "p90 queue_ms at 80 req/s"),
    ("sched.queue_ms_p90_interactive", _MS, "lower", "p90 queue_ms of the interactive class"),
    ("sched.queue_ms_p90_batch", _MS, "lower", "p90 queue_ms of the batch class"),
    ("sched.shed_share", "ratio", "lower", "shed or expired requests / submitted"),
    ("sched.running_peak", "count", "higher", "max scheduler 'running' sampled at submit time"),
    # sharding
    ("sharding.scatter_ms", _MS, "lower",
     "ShardedService.query start -> first shard query start, per query"),
    ("sharding.merge_ms", _MS, "lower",
     "last shard query end -> ShardedService.query end, per query"),
    ("sharding.shard_skew", "ratio", "lower", "slowest / fastest shard wall, mean over queries"),
    ("sharding.scan_ms", _MS, "lower", "ShardedService.scan self time per call"),
    # obs
    ("obs.spans_per_query", "count", "lower",
     "repro.obs spans recorded per query (metrics_snapshot counters)"),
    ("obs.snapshot_ms", _MS, "lower", "metrics_snapshot() wall per call"),
    # harness
    ("bench.trace_overhead_pct", "%", "lower",
     "traced vs untraced window: median per-query latency, percent"),
    ("bench.residual_pct", "%", "lower",
     "window wall not covered by any layer's self time, percent"),
    ("bench.generator_late_ms_p99", _MS, "lower",
     "open loop: p99 of send time minus due time at 20 and 40 req/s"),
    ("open_p90_ms_r80", _MS, "lower",
     "p90 latency from due time at 80 req/s (saturated; information only)"),
) + tuple((m.name, m.unit, m.better, m.what + " (as measured with probes installed)")
          for m in EXTRA)

PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)


def judged_metrics(workload: str) -> Tuple[Metric, ...]:
    """The end-to-end metrics compare.py judges on ``workload``."""
    return END_TO_END + tuple(m for m in EXTRA
                              if not m.workloads or workload in m.workloads)
