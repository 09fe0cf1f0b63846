"""The traced run: probes around set-up, an untraced reference window, the
traced window, and the per-layer metrics derived from the spans and from the
public stats surfaces."""

from __future__ import annotations

import bisect
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import probe, spec, stats, workloads

#: Spans written to ``trace_<workload>.json`` in full: the first requests of the window.
TRACE_REQUESTS = 24
SHARD_QUERY = "service.KathDBService.query"
SHARDED_QUERY = "sharded.ShardedService.query"


def traced_run(workload: workloads.Base, seconds: float, reference_share: float,
               detail: Dict[str, Any], out: Optional[Path]) -> Dict[str, float]:
    recorder = probe.Recorder()
    workload.env.recorder = recorder
    tally = workload.tally
    recorder.install()
    try:
        workload.prepare()
        recorder.uninstall()
        loads_before = len(tally.ingest)
        reference = workload.window(seconds * reference_share)
        untraced_docs = sum(docs for docs, _s, _t in tally.ingest[loads_before:])
        recorder.install()
        window = workload.window(seconds * (1.0 - reference_share))
        workload.finish()
    finally:
        recorder.uninstall()
    traced_docs = sum(docs for docs, _s, _t in tally.ingest) - untraced_docs

    # Probes must not perturb the program: same rows (checked request by
    # request against the first answer) and, on one client, the same tokens.
    if workload.exact_tokens:
        untraced, traced = _tokens_by_key(reference), _tokens_by_key(window)
        differing = [key for key in untraced if key in traced and untraced[key] != traced[key]]
        tally.check(not differing, f"tokens differ traced vs untraced for {differing}")
    tally.check(not recorder.errors, f"probes not installed: {recorder.errors}")

    view = Spans(recorder, window)
    metrics = per_layer(workload, reference, window, view, traced_docs)
    detail["probe_calls"] = recorder.calls()
    detail["probe_errors"] = recorder.errors
    detail["latency"] = stats.summarize([s.latency_ms for s in window.ok()])
    detail["reference_samples"] = len(reference.samples)
    detail["spans"] = len(recorder.spans)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace_{workload.name}.json").write_text(
            json.dumps(trace_document(workload, window, view)) + "\n")
    return metrics


def _tokens_by_key(window: workloads.Window) -> Dict[str, int]:
    """Request key -> tokens of its first answer in the window."""
    first: Dict[str, int] = {}
    for sample in window.ok():
        first.setdefault(sample.key, sample.tokens)
    return first


class Spans:
    """The recorder's spans with self times, split into the window's and all."""

    def __init__(self, recorder: probe.Recorder, window: workloads.Window):
        self.names = recorder.names
        self.probes = recorder.probes
        self.metric_of = [recorder.probes[name].metric for name in recorder.names]
        self.spans = recorder.spans
        self.self_ns = stats.self_times([(s[1], s[2], s[4], s[5], s[6]) for s in self.spans])
        starts = [low for low, _high in window.intervals]
        ends = [high for _low, high in window.intervals]

        def inside(start: int) -> bool:
            index = bisect.bisect_right(starts, start) - 1
            return index >= 0 and start <= ends[index]

        self.in_window = [s for s in self.spans if inside(s[4])]

    def self_by_metric(self, spans: List[Tuple]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in spans:
            metric = self.metric_of[span[0]]
            totals[metric] = totals.get(metric, 0) + self.self_ns[span[1]]
        return totals

    def count_by_metric(self, spans: List[Tuple]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in spans:
            metric = self.metric_of[span[0]]
            totals[metric] = totals.get(metric, 0) + 1
        return totals


def per_layer(workload: workloads.Base, reference: workloads.Window, window: workloads.Window,
              view: Spans, traced_docs: int) -> Dict[str, float]:
    tally = workload.tally
    queries = max(1, len(window.samples))
    ok = window.ok(gated_only=False)
    per_query_ns = view.self_by_metric(view.in_window)
    per_query_calls = view.count_by_metric(view.in_window)
    all_ns = view.self_by_metric(view.spans)
    all_calls = view.count_by_metric(view.spans)
    counters = window.counters
    out: Dict[str, float] = {name: 0.0 for name in spec.PER_LAYER_NAMES}

    def ms(ns: float) -> float:
        return ns / 1e6

    # Self time per query of every boundary metric that is per query.
    for metric in ("api.session_build_ms", "api.prepare_ms", "api.frontend_ms",
                   "parser.parse_ms", "parser.plan_ms", "optimizer.optimize_ms",
                   "fao.codegen_ms", "fao.profile_ms", "fao.critic_ms", "skills.lookup_ms",
                   "skills.revalidate_ms", "executor.execute_ms", "executor.monitor_ms",
                   "executor.fao_execute_ms", "gateway.invoke_ms", "gateway.batch_wait_ms",
                   "models.busy_ms", "models.sim_wait_ms", "relational.operator_ms",
                   "sched.submit_ms"):
        out[metric] = ms(per_query_ns.get(metric, 0)) / queries
    # Leaf probes: busy time and calls per query inside the window's regions.
    for metric, calls_name in (("gateway.fingerprint_ms", "gateway.fingerprint_calls"),
                               ("gateway.lookup_ms", None),
                               ("relational.cell_get_ms", "relational.cell_get_calls"),
                               ("relational.fork_ms", None),
                               ("datamodel.lineage_ms", "datamodel.lineage_records_per_query")):
        calls, busy = window.leaf.get(metric, (0, 0))
        out[metric] = ms(busy) / queries
        if calls_name:
            out[calls_name] = calls / queries
    out["parser.clarifications_per_query"] = \
        window.leaf.get("parser.clarifications_per_query", (0, 0))[0] / queries
    # Per document loaded / per service built / per call, over the whole traced run.
    docs = max(1, traced_docs)
    for metric in ("datamodel.populate_scene_ms_per_doc", "datamodel.populate_text_ms_per_doc",
                   "datamodel.load_base_ms_per_doc", "gateway.persist_write_ms"):
        out[metric] = ms(all_ns.get(metric, 0)) / docs
    ctors = max(1, all_calls.get("api.ctor_ms", 0))
    out["api.ctor_ms"] = ms(all_ns.get("api.ctor_ms", 0)) / ctors
    out["gateway.persist_load_ms"] = ms(all_ns.get("gateway.persist_load_ms", 0)) / ctors
    for metric in ("explain.tuple_ms", "explain.pipeline_ms", "sharding.scan_ms"):
        out[metric] = ms(all_ns.get(metric, 0)) / max(1, all_calls.get(metric, 0))
    if tally.lineage_hops:
        out["explain.lineage_hops"] = statistics.fmean(tally.lineage_hops)

    # Counts the responses carry.
    def fact(name: str) -> float:
        return sum(s.facts.get(name, 0) for s in ok) / queries

    out["api.prepared_hit_rate"] = sum(s.prepared_hit for s in ok) / queries
    out["parser.tokens_per_query"] = fact("parser_tokens")
    out["optimizer.tokens_per_query"] = fact("optimizer_tokens")
    out["fao.repairs_per_query"] = fact("repairs")
    out["executor.operators_per_query"] = fact("operators")
    out["relational.rows_in_per_query"] = fact("rows_in")
    out["models.tokens_per_query"] = fact("gateway_charged")
    out["models.calls_per_query"] = per_query_calls.get("models.busy_ms", 0) / queries
    out["executor.monitor_tokens_per_query"] = sum(
        s[8] for s in view.in_window if view.metric_of[s[0]] == "executor.monitor_ms") / queries

    # Rates from the stats surfaces (window deltas).
    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits, misses = counters.get("gateway.cache_hits", 0), counters.get("gateway.cache_misses", 0)
    semantic = counters.get("gateway.semantic_hits", 0)
    coalesced = counters.get("gateway.coalesced", 0)
    out["gateway.exact_hit_rate"] = ratio(hits, hits + misses)
    out["gateway.semantic_hit_rate"] = ratio(semantic, semantic + misses + coalesced)
    out["gateway.coalesced_share"] = ratio(coalesced, hits + misses + semantic + coalesced)
    out["gateway.evictions_per_query"] = counters.get("gateway.evictions", 0) / queries
    out["gateway.batch_size_mean"] = ratio(counters.get("gateway.batched_calls", 0),
                                           counters.get("gateway.batches", 0))
    out["gateway.batch_tokens_saved_per_query"] = \
        counters.get("gateway.batch_token_savings", 0) / queries
    skill_hits = counters.get("skills.exact_hits", 0)
    skill_lookups = skill_hits + counters.get("skills.near_hits", 0) \
        + counters.get("skills.misses", 0)
    out["skills.exact_hit_rate"] = ratio(skill_hits, skill_lookups)
    out["skills.store_bytes_per_doc"] = tally.facts.get("skill_store_bytes", 0) / workload.docs
    out["gateway.persist_bytes_per_doc"] = tally.facts.get("gateway_store_bytes", 0) / workload.docs
    out["obs.spans_per_query"] = counters.get("obs.spans", 0) / queries
    out["obs.snapshot_ms"] = statistics.median(tally.snapshot_ms)

    # Scheduler: queue time the responses report, sheds, concurrency.
    def queue_p90(samples: List[workloads.Sample]) -> float:
        values = [s.queue_ms for s in samples]
        return stats.quantile(values, 90.0) if values else 0.0

    out["sched.queue_ms_p50"] = statistics.median(s.queue_ms for s in ok) if ok else 0.0
    out["sched.queue_ms_p90"] = queue_p90(ok)
    for rate in spec.OPEN_RATES:
        out[f"sched.queue_ms_p90_r{rate}"] = queue_p90([s for s in ok if s.rate == rate])
    for sched_class in ("interactive", "batch"):
        out[f"sched.queue_ms_p90_{sched_class}"] = queue_p90(
            [s for s in ok if s.sched_class == sched_class and window.phases])
    dropped = counters.get("sched.shed", 0) + counters.get("sched.expired", 0)
    out["sched.shed_share"] = ratio(dropped, counters.get("sched.admitted", 0)
                                    + counters.get("sched.shed", 0))
    out["sched.running_peak"] = max((s.facts.get("running", 0) for s in ok), default=0)

    out.update(sharding_numbers(view))

    # The harness itself.
    out["bench.trace_overhead_pct"] = overhead_pct(reference, window)
    covered = sum(view.self_ns[s[1]] for s in view.in_window) \
        + sum(busy for _calls, busy in window.leaf.values())
    if window.busy_s:
        out["bench.residual_pct"] = 100.0 * (window.busy_s - covered / 1e9) / window.busy_s
    measured = workloads.end_to_end(workload, window, 0.0)
    for name in ("bench.generator_late_ms_p99", "open_p90_ms_r80") \
            + tuple(m.name for m in spec.EXTRA):
        out[name] = measured.get(name, 0.0)
    return out


def sharding_numbers(view: Spans) -> Dict[str, float]:
    """Scatter and merge time and shard skew from the coordinator's query
    spans and the shard queries they caused."""
    shard_spans: Dict[int, List[Tuple]] = {}
    for span in view.in_window:
        if view.names[span[0]] == SHARD_QUERY and span[2]:
            shard_spans.setdefault(span[2], []).append(span)
    scatter, merge, skew = [], [], []
    for span in view.in_window:
        kids = shard_spans.get(span[1])
        if view.names[span[0]] != SHARDED_QUERY or not kids:
            continue
        scatter.append(min(k[4] for k in kids) - span[4])
        merge.append(span[5] - max(k[5] for k in kids))
        walls = [k[5] - k[4] for k in kids]
        skew.append(max(walls) / max(1, min(walls)))
    if not scatter:
        return {}
    return {"sharding.scatter_ms": statistics.fmean(scatter) / 1e6,
            "sharding.merge_ms": statistics.fmean(merge) / 1e6,
            "sharding.shard_skew": statistics.fmean(skew)}


def overhead_pct(reference: workloads.Window, window: workloads.Window) -> float:
    """Traced vs untraced latency: the sum over request keys of the median
    latency (one pass of the mix), percent."""
    def medians(win: workloads.Window) -> Dict[str, float]:
        by_key: Dict[str, List[float]] = {}
        for sample in win.ok():
            if sample.kind != "novel":
                by_key.setdefault(sample.key, []).append(sample.latency_ms)
        return {key: statistics.median(values) for key, values in by_key.items()}

    untraced, traced = medians(reference), medians(window)
    shared = sorted(set(untraced) & set(traced))
    base = sum(untraced[key] for key in shared)
    return 100.0 * (sum(traced[key] for key in shared) / base - 1.0) if base else 0.0


def trace_document(workload: workloads.Base, window: workloads.Window,
                   view: Spans) -> Dict[str, Any]:
    """What ``trace_<workload>.json`` holds: per-probe totals of the window and
    the full span trees of its first requests."""
    totals: Dict[str, Dict[str, Any]] = {}
    for span in view.in_window:
        name = view.names[span[0]]
        entry = totals.setdefault(name, {"layer": view.probes[name].layer,
                                         "metric": view.probes[name].metric,
                                         "calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += view.self_ns[span[1]] / 1e6
        entry["total_ms"] += (span[5] - span[4]) / 1e6
    requests: Dict[int, List[Dict[str, Any]]] = {}
    origin = window.intervals[0][0] if window.intervals else 0
    for span in view.in_window:
        request = span[3]
        if not request or (request not in requests and len(requests) >= TRACE_REQUESTS):
            continue
        name = view.names[span[0]]
        requests.setdefault(request, []).append({
            "id": span[1], "parent": span[2], "name": name,
            "layer": view.probes[name].layer,
            "start_us": (span[4] - origin) / 1e3, "end_us": (span[5] - origin) / 1e3,
            "self_us": view.self_ns[span[1]] / 1e3, "leaf_us": span[6] / 1e3,
            "thread": span[7]})
    return {
        "workload": workload.name, "seed": workload.env.seed, "docs": workload.docs,
        "queries": len(window.samples), "busy_s": window.busy_s,
        "spans_in_window": len(view.in_window),
        "probes": totals,
        "leaf": {metric: {"calls": calls, "busy_ms": busy / 1e6}
                 for metric, (calls, busy) in window.leaf.items()},
        "requests": [{"request": request, "spans": spans}
                     for request, spans in requests.items()],
    }
