"""Command-line interface for the KathDB reproduction.

Examples
--------
Run the paper's flagship query with the scripted user from Section 6::

    python -m repro.cli --flagship

Run an arbitrary NL query with scripted clarifications::

    python -m repro.cli --query "Which films have a boring poster?"
    python -m repro.cli --query "Rank every film by how exciting its plot is." \
        --clarify "exciting=the plot contains scenes that are uncommon in real life"

Run interactively (KathDB asks *you* the clarification questions)::

    python -m repro.cli --query "..." --interactive

Serve a batch concurrently (the service layer: one isolated session per
request, prepared-plan reuse across them)::

    python -m repro.cli --query "Which films have a boring poster?" \
        --repeat 8 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro import KathDB, KathDBConfig, build_movie_corpus
from repro.data.workloads import (
    FLAGSHIP_CLARIFICATION,
    FLAGSHIP_CORRECTION,
    FLAGSHIP_QUERY,
)
from repro.interaction.user import ConsoleUser, ScriptedUser, SilentUser, UserAgent


def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="kathdb-repro",
        description="Run NL queries over the synthetic multimodal movie corpus with KathDB.")
    parser.add_argument("--query", help="the natural-language query to run")
    parser.add_argument("--flagship", action="store_true",
                        help="run the paper's flagship query with the Section 6 scripted user")
    parser.add_argument("--size", type=int, default=20, help="corpus size (default: 20)")
    parser.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")
    parser.add_argument("--clarify", action="append", default=[], metavar="TERM=ANSWER",
                        help="scripted answer to a clarification question (repeatable)")
    parser.add_argument("--correction", action="append", default=[], metavar="TEXT",
                        help="scripted reactive correction to the query sketch (repeatable)")
    parser.add_argument("--interactive", action="store_true",
                        help="answer clarification questions at the terminal instead of scripting them")
    parser.add_argument("--explain", action="store_true",
                        help="print the coarse pipeline explanation after the result")
    parser.add_argument("--explain-top", action="store_true",
                        help="print the fine-grained explanation of the top result tuple")
    parser.add_argument("--lineage-level", choices=["row", "table", "off"], default="row",
                        help="provenance tracking granularity (default: row)")
    parser.add_argument("--no-monitor", action="store_true",
                        help="disable the semantic-anomaly monitor")
    parser.add_argument("--limit", type=int, default=10, help="result rows to print (default: 10)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads for batch mode (default: 1 = serial)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the query N times through the service layer (default: 1)")
    parser.add_argument("--no-prepared", action="store_true",
                        help="disable the prepared-query cache in batch mode")
    parser.add_argument("--no-model-cache", action="store_true",
                        help="disable the model gateway's shared result cache "
                             "(coalescing/batching stay on; forces service mode)")
    parser.add_argument("--gateway-stats", nargs="?", const=True, default=False,
                        metavar="SESSION",
                        help="print the model gateway's counters after the run "
                             "(forces service mode); with a session id (batch "
                             "sessions are named s1..sN), print that session's "
                             "counters and last-60s window instead of the "
                             "service-wide view")
    parser.add_argument("--semantic-cache", choices=["off", "ann"],
                        default=None,
                        help="semantic near-match tier for embeddings "
                             "predicates: 'ann' (default; multi-probe LSH "
                             "index) or 'off' (bit-identical to uncached "
                             "execution); forces service mode")
    parser.add_argument("--skill-store", default=None, metavar="BACKEND[:PATH]",
                        help="enable the durable FAO skill store: 'memory', "
                             "'file:DIR', or 'sqlite:FILE'; generated functions "
                             "are persisted and reused (after revalidation) "
                             "across restarts pointed at the same path (forces "
                             "service mode)")
    parser.add_argument("--gateway-cache", default=None, metavar="BACKEND[:PATH]",
                        help="persistent backing store for the gateway's "
                             "exact/semantic result caches: 'memory' (default; "
                             "process-local), 'file:DIR', or 'sqlite:FILE'; "
                             "non-volatile cached results survive restarts "
                             "pointed at the same path (forces service mode)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="shard the engine N ways (shared-nothing workers; "
                             "population and queries scatter-gather with "
                             "row-identical merged results; forces service "
                             "mode; default: 1 = unsharded)")
    parser.add_argument("--skill-stats", action="store_true",
                        help="print the skill store's hit/miss/revalidation "
                             "counters after the run (forces service mode)")
    parser.add_argument("--simulate-latency", type=float, default=0.0, metavar="SCALE",
                        help="sleep each model call's synthetic latency times SCALE "
                             "(makes batch throughput numbers honest; default: 0)")
    parser.add_argument("--trace", action="store_true",
                        help="print each query's span tree after the run "
                             "(forces service mode)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the run's traces as a Chrome trace_event "
                             "file loadable in chrome://tracing or Perfetto "
                             "(forces service mode)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the service metrics registry (counters, "
                             "gauges, latency histograms) after the run "
                             "(forces service mode)")
    parser.add_argument("--slow-query-ms", type=float, default=None, metavar="MS",
                        help="record queries slower than MS in the slow-query "
                             "log and print it after the run (forces service "
                             "mode)")
    parser.add_argument("--tenant", default=None, metavar="ID",
                        help="tenant id for fair-share scheduling; requests "
                             "from the same tenant share one weighted queue "
                             "(forces service mode; default: one implicit "
                             "tenant per request/session)")
    parser.add_argument("--priority", choices=["interactive", "batch", "background"],
                        default=None,
                        help="scheduling class for the batch's requests "
                             "(forces service mode; default: interactive)")
    parser.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                        help="per-request deadline; requests still queued (or "
                             "running) past it are cancelled with a structured "
                             "ok=False response instead of blocking (forces "
                             "service mode)")
    parser.add_argument("--sched-stats", action="store_true",
                        help="print the fair-share scheduler's per-class and "
                             "per-tenant counters after the run (forces "
                             "service mode)")
    return parser


def parse_clarifications(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse repeated ``term=answer`` options into a dict."""
    clarifications: Dict[str, str] = {}
    for pair in pairs:
        term, separator, answer = pair.partition("=")
        if not separator:
            raise ValueError(f"--clarify expects TERM=ANSWER, got {pair!r}")
        clarifications[term.strip()] = answer.strip()
    return clarifications


def parse_skill_store(spec: str) -> Dict[str, object]:
    """Parse a ``--skill-store BACKEND[:PATH]`` spec into config overrides."""
    kind, separator, path = spec.partition(":")
    kind = kind.strip()
    if kind not in ("memory", "file", "sqlite"):
        raise ValueError(
            f"--skill-store expects memory, file:DIR or sqlite:FILE, got {spec!r}")
    overrides: Dict[str, object] = {"enable_skill_store": True,
                                    "skill_store_backend": kind}
    if separator and path.strip():
        overrides["skill_store_path"] = path.strip()
    elif kind != "memory":
        raise ValueError(f"--skill-store {kind} requires a path "
                         f"({kind}:/some/where)")
    return overrides


def parse_gateway_cache(spec: str) -> Dict[str, object]:
    """Parse a ``--gateway-cache BACKEND[:PATH]`` spec into config overrides."""
    kind, separator, path = spec.partition(":")
    kind = kind.strip()
    if kind not in ("memory", "file", "sqlite"):
        raise ValueError(
            f"--gateway-cache expects memory, file:DIR or sqlite:FILE, got {spec!r}")
    overrides: Dict[str, object] = {"gateway_cache_backend": kind}
    if separator and path.strip():
        overrides["gateway_cache_path"] = path.strip()
    elif kind != "memory":
        raise ValueError(f"--gateway-cache {kind} requires a path "
                         f"({kind}:/some/where)")
    return overrides


def build_user(args: argparse.Namespace) -> UserAgent:
    """Choose the user agent implied by the CLI options."""
    if args.interactive:
        return ConsoleUser()
    if args.flagship:
        return ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
    clarifications = parse_clarifications(args.clarify)
    corrections = list(args.correction)
    if clarifications or corrections:
        return ScriptedUser(clarifications, corrections)
    return SilentUser()


def print_span_tree(spans: Sequence[Dict[str, object]], output) -> None:
    """Render one query's span summaries as an indented tree."""
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    def emit(span: Dict[str, object], depth: int) -> None:
        tags = span.get("tags") or {}
        extras = ", ".join(f"{k}={v}" for k, v in sorted(tags.items())
                           if k not in ("session", "query"))
        suffix = f" [{extras}]" if extras else ""
        duration = span.get("duration_ms") or 0.0
        print(f"  {'  ' * depth}{span['name']} ({span['kind']}): "
              f"{duration:.2f} ms{suffix}", file=output)
        for child in children.get(span.get("span_id"), []):
            emit(child, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)


def print_sched_stats(stats: Dict[str, object], output) -> None:
    """Render a scheduler stats snapshot."""
    print(f"scheduler: {stats['workers']} worker(s), "
          f"admitted={stats['admitted']}, completed={stats['completed']}, "
          f"shed={stats['shed']}, expired={stats['expired']}, "
          f"cancelled={stats['cancelled']}", file=output)
    for name, board in sorted(stats.get("classes", {}).items()):  # type: ignore[union-attr]
        print(f"  class {name}: reserved={board['reserved']}, "
              f"running={board['running']}, depth={board['depth']}", file=output)
    for tenant, counters in sorted(stats.get("tenants", {}).items()):  # type: ignore[union-attr]
        print(f"  tenant {tenant}: queued={counters['queued']}, "
              f"shed={counters['shed']}, expired={counters['expired']}",
              file=output)


def run_sharded_batch(args: argparse.Namespace, query: str, sharded,
                      corpus, output) -> int:
    """Serve the batch through a :class:`~repro.sharding.ShardedService`.

    The sharded facade reports its own per-shard summary instead of the
    single-service cache/trace surfaces (each shard keeps those privately).
    """
    from repro import QueryOptions, QueryRequest
    from repro.utils.timer import Timer

    with sharded:
        sharded.load_corpus(corpus)
        requests = [QueryRequest(nl_query=query, user=build_user(args),
                                 options=QueryOptions(
                                     use_prepared=not args.no_prepared,
                                     tenant_id=args.tenant,
                                     priority=args.priority,
                                     deadline_ms=args.deadline_ms))
                    for _ in range(max(1, args.repeat))]
        timer = Timer()
        with timer:
            responses = sharded.query_batch(requests)
        failed = [r for r in responses if not r.ok]
        print(f"\nquery: {query}", file=output)
        print(f"batch: {len(responses)} request(s), "
              f"{sharded.num_shards} shard(s), "
              f"{timer.elapsed:.3f} s wall clock "
              f"({len(responses) / max(timer.elapsed, 1e-9):.1f} queries/s)",
              file=output)
        for response in responses:
            print("  " + response.describe(), file=output)
        print(sharded.describe(), file=output)
        if args.gateway_stats:
            stats = sharded.gateway_stats()
            print("gateway (all shards): "
                  + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())),
                  file=output)
        if args.sched_stats:
            print_sched_stats(sharded.scheduler_stats(), output)
        first_ok = next((r for r in responses if r.ok), None)
        if first_ok is not None:
            print(first_ok.result.final_table.pretty(limit=args.limit),
                  file=output)
    return 1 if failed else 0


def run_batch(args: argparse.Namespace, query: str, output) -> int:
    """Serve ``--repeat`` copies of the query through the service layer."""
    from repro import KathDBService, QueryOptions, QueryRequest

    corpus = build_movie_corpus(size=args.size, seed=args.seed)
    semantic_overrides = {}
    if args.semantic_cache is not None:
        semantic_overrides["enable_semantic_cache"] = args.semantic_cache != "off"
    skill_overrides: Dict[str, object] = {}
    if args.skill_store is not None:
        skill_overrides = parse_skill_store(args.skill_store)
    gateway_cache_overrides: Dict[str, object] = {}
    if args.gateway_cache is not None:
        gateway_cache_overrides = parse_gateway_cache(args.gateway_cache)
    config = KathDBConfig(seed=args.seed, lineage_level=args.lineage_level,
                          monitor_enabled=not args.no_monitor,
                          enable_prepared_cache=not args.no_prepared,
                          enable_model_cache=not args.no_model_cache,
                          service_max_workers=max(1, args.jobs),
                          simulate_model_latency=max(0.0, args.simulate_latency),
                          slow_query_ms=args.slow_query_ms,
                          **semantic_overrides, **skill_overrides,
                          **gateway_cache_overrides)
    shards = max(1, args.shards)
    if shards > 1:
        from repro.sharding import ShardedService
        sharded = ShardedService(config, shards=shards)
        print(f"loading corpus ({len(corpus)} movies) across {shards} shards "
              f"and populating multimodal views ...", file=output)
        return run_sharded_batch(args, query, sharded, corpus, output)
    service = KathDBService(config)
    print(f"loading corpus ({len(corpus)} movies) and populating multimodal views ...",
          file=output)
    service.load_corpus(corpus)

    # Each request gets its own (stateful) user agent and its own session.
    # Explanations are only attached to the first request: they describe the
    # pipeline, which is identical across the batch.
    def request_options(first: bool) -> QueryOptions:
        return QueryOptions(use_prepared=not args.no_prepared,
                            explain=args.explain and first,
                            explain_top=args.explain_top and first,
                            tenant_id=args.tenant,
                            priority=args.priority,
                            deadline_ms=args.deadline_ms)

    requests = [QueryRequest(nl_query=query, user=build_user(args),
                             options=request_options(index == 0))
                for index in range(max(1, args.repeat))]
    jobs = max(1, args.jobs)
    from repro.utils.timer import Timer
    timer = Timer()
    with timer:
        responses = service.query_batch(requests, jobs=jobs)
    service.shutdown()

    failed = [r for r in responses if not r.ok]
    print(f"\nquery: {query}", file=output)
    print(f"batch: {len(responses)} request(s), {jobs} worker(s), "
          f"{timer.elapsed:.3f} s wall clock "
          f"({len(responses) / max(timer.elapsed, 1e-9):.1f} queries/s)", file=output)
    for response in responses:
        print("  " + response.describe(), file=output)
    if args.no_prepared:
        print("prepared-query cache: disabled", file=output)
    else:
        stats = service.prepared_stats()
        print("prepared-query cache: " + ", ".join(f"{k}={v}" for k, v in stats.items()),
              file=output)
    if args.sched_stats:
        print_sched_stats(service.scheduler_stats(), output)
    if args.skill_stats or args.skill_store is not None:
        if service.skill_store is None:
            print("skill store: disabled", file=output)
        else:
            stats = service.skill_stats() or {}
            print("skill store: " + ", ".join(f"{k}={v}" for k, v in stats.items()),
                  file=output)
    if args.gateway_stats:
        if isinstance(args.gateway_stats, str):
            # Per-session view: that session's cumulative counters plus the
            # last-60s window scoped to its own events.
            session_id = args.gateway_stats
            scoped = service.gateway_stats(window_s=60.0, session_id=session_id)
            counters = {k: v for k, v in scoped.items()
                        if k not in ("windowed", "session_id")}
            if not counters:
                print(f"gateway session {session_id}: no tracked traffic",
                      file=output)
            else:
                print(f"gateway session {session_id}: "
                      + ", ".join(f"{k}={v}" for k, v in counters.items()),
                      file=output)
                windowed = scoped["windowed"]
                print(f"  last {windowed['window_s']:.0f}s: "
                      f"{windowed['requests']} requests "
                      f"({windowed['requests_per_s']:.2f}/s), "
                      f"{windowed['tokens_charged']} tokens charged, "
                      f"{windowed['tokens_saved']} saved", file=output)
        else:
            print(service.gateway.describe(), file=output)
            batching = service.gateway.stats()["batching"]
            for kind, sizes in batching.get("by_kind", {}).items():
                print(f"  batched {kind}: {sizes['batches']} batches, "
                      f"largest={sizes['largest_batch']}", file=output)
            windowed = service.gateway.windowed_stats(60.0)
            print(f"  last {windowed['window_s']:.0f}s: "
                  f"{windowed['requests']} requests "
                  f"({windowed['requests_per_s']:.2f}/s), "
                  f"{windowed['tokens_charged']} tokens charged, "
                  f"{windowed['tokens_saved']} saved, "
                  f"{windowed['batch_tokens_saved']} batch-discounted",
                  file=output)
        if args.semantic_cache:
            print(f"semantic near-match tier: {args.semantic_cache}",
                  file=output)
        if args.no_model_cache:
            print("model gateway: result cache disabled (--no-model-cache)",
                  file=output)
    if args.trace:
        for response in responses:
            if response.trace_spans:
                print(f"\ntrace {response.trace_id} "
                      f"[{response.session_id}]:", file=output)
                print_span_tree(response.trace_spans, output)
    if args.trace_out:
        events = service.export_chrome_trace(args.trace_out)
        print(f"chrome trace: {events} event(s) written to {args.trace_out} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)",
              file=output)
    if args.slow_query_ms is not None:
        entries = service.slow_queries.entries()
        print(f"slow queries (>{args.slow_query_ms:.0f} ms): {len(entries)}",
              file=output)
        for entry in entries:
            op = entry.get("slowest_operator") or {}
            op_note = (f"; slowest operator {op['name']} "
                       f"({op['duration_ms']:.1f} ms, span {op['span_id']})"
                       if op else "")
            print(f"  {entry['trace_id']} [{entry['session_id']}]: "
                  f"{entry['latency_ms']:.1f} ms{op_note}", file=output)
    if args.metrics:
        print("\nmetrics:", file=output)
        snapshot = service.metrics_snapshot()
        for name, value in sorted(snapshot.get("counters", {}).items()):
            print(f"  counter {name}: {value}", file=output)
        for name, value in sorted(snapshot.get("gauges", {}).items()):
            print(f"  gauge {name}: {value}", file=output)
        for name, summary in sorted(snapshot.get("histograms", {}).items()):
            print(f"  histogram {name}: count={summary['count']}, "
                  f"p50={summary['p50']:.1f}, p95={summary['p95']:.1f}, "
                  f"p99={summary['p99']:.1f}", file=output)
    first_ok = next((r for r in responses if r.ok), None)
    if first_ok is not None:
        print(first_ok.result.final_table.pretty(limit=args.limit), file=output)
        if first_ok.explanation:
            print("\n" + first_ok.explanation, file=output)
        if first_ok.top_explanation:
            print("\n" + first_ok.top_explanation, file=output)
        if (args.explain or args.explain_top) and not (first_ok.explanation
                                                       or first_ok.top_explanation):
            # Explanations ride on request 0 only; say so instead of silently
            # dropping the flag when that request failed.
            print("\n(explanation unavailable: the explaining request failed)",
                  file=output)
    return 1 if failed else 0


def run(args: argparse.Namespace, output=None) -> int:
    """Execute the CLI request; returns a process exit code."""
    output = output if output is not None else sys.stdout
    query = FLAGSHIP_QUERY if args.flagship else args.query
    if not query:
        print("error: provide --query or --flagship", file=output)
        return 2
    # Gateway flags only make sense on the service path (the legacy facade
    # rides a private pass-through gateway with no tiers), so they force
    # batch mode.
    service_mode = (args.jobs > 1 or args.repeat > 1
                    or bool(args.gateway_stats) or args.no_model_cache
                    or args.semantic_cache is not None
                    or args.skill_store is not None or args.skill_stats
                    or args.gateway_cache is not None or args.shards > 1
                    or args.trace or args.trace_out is not None
                    or args.metrics or args.slow_query_ms is not None
                    or args.tenant is not None or args.priority is not None
                    or args.deadline_ms is not None or args.sched_stats)
    if service_mode:
        if args.interactive:
            print("error: --interactive cannot be combined with service mode "
                  "(--jobs/--repeat/--gateway-stats/--no-model-cache/"
                  "--semantic-cache/--skill-store/--skill-stats/"
                  "--trace/--trace-out/--metrics/--slow-query-ms)",
                  file=output)
            return 2
        return run_batch(args, query, output)

    corpus = build_movie_corpus(size=args.size, seed=args.seed)
    config = KathDBConfig(seed=args.seed, lineage_level=args.lineage_level,
                          monitor_enabled=not args.no_monitor)
    db = KathDB(config)
    print(f"loading corpus ({len(corpus)} movies) and populating multimodal views ...",
          file=output)
    db.load_corpus(corpus)

    user = build_user(args)
    result = db.query(query, user=user)

    print(f"\nquery: {query}", file=output)
    print(f"result rows: {len(result.final_table)}  "
          f"(query tokens: {result.total_tokens}, "
          f"interactions: {result.transcript.user_turns()})", file=output)
    display_columns = [c for c in ("lid", "title", "year", "final_score",
                                   "excitement_score", "boring_poster")
                       if result.final_table.schema.has_column(c)]
    table = result.final_table.select_columns(display_columns, name="result") \
        if display_columns else result.final_table
    print(table.pretty(limit=args.limit), file=output)

    if args.explain:
        print("\n" + db.explain_pipeline(result), file=output)
    if args.explain_top and len(result.final_table) and \
            result.final_table.schema.has_column("lid"):
        top_lid = result.rows()[0]["lid"]
        if top_lid is not None:
            print("\n" + db.explain_tuple(result, top_lid).describe(), file=output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
