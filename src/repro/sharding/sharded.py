"""Shared-nothing sharding: N independent KathDB engines behind one facade.

:class:`ShardedService` presents the :class:`~repro.api.service.KathDBService`
API while fanning work across ``shards`` thread-backed workers.  Each shard
is a *complete* private engine — its own model suite, catalog, lineage
store, gateway (with its own exact/semantic caches and, when configured,
its own persistent cache store), skill store, and trace sinks.  Nothing is
shared between shards, so there is no cross-shard locking anywhere on the
data path; the only coordination is the scatter/gather done here.

Two placement modes cover the two workload shapes:

* ``"partition"`` (default) — the corpus is split into contiguous slices,
  one per shard.  Population and table scans scatter to every shard and
  gather *row-identical* merged results: contiguous slicing preserves
  document order, so concatenating shard tables in shard order reproduces
  the single-process row order, and the corpus-position-dependent id
  columns (text-graph ``eid``/``mid``, which each engine assigns from a
  running offset) are rebased at merge time by the cumulative row counts
  of the preceding shards — exactly the offsets a single engine would
  have used.  Lineage ``lid`` values are the one per-process artifact
  that cannot be reproduced across independent lineage stores; the
  row-identity guarantee is therefore defined over every column *except*
  ``lid`` (and image payloads compare by URI).

* ``"replicate"`` — every shard loads the full corpus and queries route
  to exactly one shard by consistent hash of the request fingerprint
  (:func:`repro.gateway.fingerprint.request_key` over the NL text), so
  repeated and near-repeated requests keep hitting the shard whose
  gateway caches are already warm for them.  This is the model-call-heavy
  mode: throughput scales with shards because distinct requests spread
  across the ring while each shard's cache working set stays small.

Both the coordinator and every shard are
:class:`~repro.api.frontend.RequestFrontend` instances: the coordinator's
scheduler admits each request, and each shard's scheduler admits the shard
request it receives.  A request's deadline crosses the scatter — each
shard request carries what is left of the coordinator's — so a lapsed
deadline cancels shard work at the next operator or gateway boundary.

Failure contract: a shard raising mid-query never hangs the gather and
never leaks partial rows — every sibling future is drained, the merged
:class:`~repro.api.request.QueryResponse` carries ``ok=False`` with a
structured ``"shard {i}: ..."`` error, the failing shard's ``shed_reason``
and ``result=None``, and the surviving shards remain fully usable for the
next request.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.frontend import RequestFrontend
from repro.api.request import QueryRequest, QueryResponse
from repro.api.service import KathDBService
from repro.core.config import KathDBConfig
from repro.data.mmqa import MovieCorpus
from repro.datamodel.views import PopulationReport
from repro.errors import KathDBError
from repro.executor.result import QueryResult
from repro.gateway.fingerprint import request_key
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, attach, span
from repro.relational.table import Table
from repro.sched.cancel import current_cancel_token
from repro.sharding.ring import HashRing

PLACEMENTS = ("partition", "replicate")

#: Merge-time id rebase rules for partition mode: per table, which columns
#: shift by the cumulative prior-shard row count of which *counter* table.
#: Text-graph entity/mention ids are assigned from running offsets over the
#: corpus (one per entity/mention row), so shard-local ids rebase to the
#: single-process ids by adding the entity/mention rows of earlier shards.
#: Scene-graph ids (``oid``/``fid``) are document-local and need no rebase.
_ID_REBASE: Dict[str, Dict[str, str]] = {
    "text_entities": {"eid": "text_entities"},
    "text_mentions": {"mid": "text_mentions", "eid": "text_entities"},
    "text_relationships": {"eid_i": "text_entities", "eid_j": "text_entities"},
    "text_attributes": {"eid": "text_entities"},
}


def split_corpus(corpus: MovieCorpus, shards: int) -> List[MovieCorpus]:
    """Split a corpus into ``shards`` contiguous, order-preserving slices.

    Contiguity is load-bearing: concatenating the slices in shard order
    must reproduce the original document order, because that is what makes
    merged scans row-identical to a single-process load.  Sizes differ by
    at most one (the first ``len % shards`` slices take the extra).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    total = len(corpus.movies)
    base, extra = divmod(total, shards)
    slices: List[MovieCorpus] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(MovieCorpus(movies=list(corpus.movies[start:start + size]),
                                  seed=corpus.seed))
        start += size
    return slices


class ShardedService(RequestFrontend):
    """N shared-nothing KathDB engines behind the KathDBService API."""

    def __init__(self, config: Optional[KathDBConfig] = None, shards: int = 2,
                 placement: str = "partition"):
        if shards < 1:
            raise KathDBError("shards must be >= 1")
        if placement not in PLACEMENTS:
            raise KathDBError(f"placement must be one of {PLACEMENTS}, "
                              f"got {placement!r}")
        config = config or KathDBConfig()
        self.placement = placement
        self.num_shards = shards
        # Coordinator-level observability: the shards each keep their own
        # registry/tracer (shared-nothing); this registry carries the
        # scatter/gather spans, the coordinator scheduler's counters, and
        # per-shard gauges and routing counters.  One coordinator worker
        # per shard: a routed request is one-shard work, and a partition
        # scatter fans out through the separate shard pool.
        super().__init__(config, MetricsRegistry(), shards)
        self.tracer = Tracer(enabled=config.enable_tracing,
                             metrics=self.metrics)
        self.shards: List[KathDBService] = [
            KathDBService(self._shard_config(index)) for index in range(shards)]
        self.ring = HashRing(range(shards))
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="kathdb-shard")
        self._closed = False
        self._lock = threading.Lock()
        for index, shard in enumerate(self.shards):
            self.metrics.gauge(f"shard.{index}.catalog_tables",
                               fn=lambda s=shard: float(len(s.catalog)))
            self.metrics.gauge(
                f"shard.{index}.gateway_cache_entries",
                fn=lambda s=shard: float(len(s.gateway.cache)))

    # -- construction -------------------------------------------------------------
    def _shard_config(self, index: int) -> KathDBConfig:
        """Shard ``index``'s private config: same knobs, disjoint paths.

        Shared-nothing includes the filesystem — two shards appending to
        one JSONL trace file or one SQLite cache would serialize on it (or
        corrupt it), so every configured path gets a per-shard suffix.
        """
        config = self.config
        replacements: Dict[str, Any] = {}
        directory_backends = {"gateway_cache_path": config.gateway_cache_backend,
                              "skill_store_path": config.skill_store_backend}
        for field in ("gateway_cache_path", "skill_store_path",
                      "profile_cache_path", "trace_jsonl_path", "workspace"):
            value = getattr(config, field)
            if value is None:
                continue
            as_directory = (field == "workspace"
                            or directory_backends.get(field) == "file")
            replacements[field] = self._shard_path(value, index, as_directory)
        return dataclasses.replace(config, **replacements)

    @staticmethod
    def _shard_path(path: Union[str, Path], index: int,
                    directory: bool) -> Path:
        path = Path(path)
        if directory:
            return path / f"shard-{index:02d}"
        return path.with_name(f"{path.stem}-shard{index:02d}{path.suffix}")

    # -- data loading -------------------------------------------------------------
    def load_corpus(self, corpus: MovieCorpus,
                    populate_views: bool = True) -> PopulationReport:
        """Scatter corpus population across every shard; gather one report.

        Partition mode gives each shard its contiguous slice; replicate
        mode gives each shard the whole corpus.  The merged report sums
        per-table row counts across shards (partition) or reports one
        replica's (replicate); the table lids are shard 0's — lineage ids
        are per-shard artifacts (see the module docstring).
        """
        if self.placement == "partition":
            slices = split_corpus(corpus, self.num_shards)
        else:
            slices = [corpus] * self.num_shards

        with self.tracer.trace("load_corpus", scatter=self.placement,
                               shards=self.num_shards) as trace:
            def populate(index: int) -> PopulationReport:
                with attach(trace):
                    with span(f"shard-{index}.load_corpus", kind="scatter",
                              shard=index, docs=len(slices[index].movies)):
                        return self.shards[index].load_corpus(
                            slices[index], populate_views=populate_views)

            futures = [self._pool.submit(populate, index)
                       for index in range(self.num_shards)]
            with span("gather.population", kind="gather"):
                reports = [future.result() for future in futures]

        merged = PopulationReport(base_tables=dict(reports[0].base_tables),
                                  view_tables=dict(reports[0].view_tables),
                                  row_counts=dict(reports[0].row_counts))
        if self.placement == "partition":
            for report in reports[1:]:
                for name, count in report.row_counts.items():
                    merged.row_counts[name] = merged.row_counts.get(name, 0) + count
        self.population_report = merged
        return merged

    # -- scans --------------------------------------------------------------------
    def scan(self, name: str) -> Table:
        """The merged view of table ``name`` across every shard.

        Replicate mode returns shard 0's copy (all replicas are identical).
        Partition mode concatenates shard tables in shard order, rebasing
        the corpus-position-dependent id columns (:data:`_ID_REBASE`) so
        the merged table is row-identical — every column except ``lid`` —
        to the table a single-process service would have built.
        """
        if self.placement == "replicate":
            return self.shards[0].catalog.table(name)
        tables = [shard.catalog.table(name) for shard in self.shards
                  if name in shard.catalog]
        if not tables:
            raise KathDBError(f"no shard has a table named {name!r}")
        rebase = _ID_REBASE.get(name, {})
        offsets = self._rebase_offsets(rebase)
        merged_rows: List[Dict[str, Any]] = []
        for index, table in enumerate(tables):
            for row in table:
                row = dict(row)
                for column, counter in rebase.items():
                    if row.get(column) is not None:
                        row[column] += offsets[counter][index]
                merged_rows.append(row)
        return Table.from_rows(name, merged_rows, schema=tables[0].schema)

    def _rebase_offsets(self, rebase: Dict[str, str]) -> Dict[str, List[int]]:
        """Per counter table: shard i's id offset = prior shards' row sum."""
        offsets: Dict[str, List[int]] = {}
        for counter in set(rebase.values()):
            running, per_shard = 0, []
            for shard in self.shards:
                per_shard.append(running)
                if counter in shard.catalog:
                    running += len(shard.catalog.table(counter))
            offsets[counter] = per_shard
        return offsets

    # -- querying -----------------------------------------------------------------
    def _execute(self, request: QueryRequest, session_name: str,
                 tenant: str) -> QueryResponse:
        """Answer one admitted request: routed (replicate) or scatter-gathered."""
        if self.placement == "replicate":
            return self._route(request)
        return self._scatter_query(request)

    @staticmethod
    def _with_deadline(request: QueryRequest) -> QueryRequest:
        """``request`` carrying what is left of the coordinator's deadline.

        The coordinator's cancel token lives in a context variable that the
        shard threads never see; re-stating it as the shard request's
        ``deadline_ms`` lets each shard scheduler cancel its own work.
        """
        token = current_cancel_token()
        remaining = token.remaining_s() if token is not None else None
        if remaining is None:
            return request
        return dataclasses.replace(request, deadline_ms=remaining * 1000.0)

    def _fingerprint(self, request: QueryRequest) -> Tuple[int, int]:
        """The routing fingerprint: stable across processes and restarts."""
        return request_key("kathdb.service", "query", (request.nl_query,),
                           {"tag": request.options.tag})

    def _route(self, request: QueryRequest) -> QueryResponse:
        """Send one request to its consistent-hash home shard."""
        shard_index = self.ring.node_for(self._fingerprint(request))
        self.metrics.counter(f"shard.{shard_index}.routed").inc()
        shard_request = self._with_deadline(request)
        with self.tracer.trace("query.routed", shard=shard_index):
            with span("route", kind="route", shard=shard_index):
                return self.shards[shard_index].query(shard_request)

    def _scatter_query(self, request: QueryRequest) -> QueryResponse:
        """Fan one request to every shard; merge or fail structurally.

        Every shard future is drained before the merge decision — a shard
        failure must neither hang the gather nor strand sibling executions
        mid-flight (they own locks and pool threads the next query needs).
        """
        start_pc = time.perf_counter()
        # Stateful user agents must not be shared across shards.
        shard_requests = [self._with_deadline(self._isolate_user(request))
                          for _ in self.shards]
        with self.tracer.trace("query.scatter", shards=self.num_shards) as trace:
            def run(index: int) -> QueryResponse:
                with attach(trace):
                    with span(f"shard-{index}.query", kind="scatter",
                              shard=index):
                        return self.shards[index].query(shard_requests[index])

            futures = [self._pool.submit(run, index)
                       for index in range(self.num_shards)]
            responses: List[Union[QueryResponse, BaseException]] = []
            with span("gather.query", kind="gather"):
                for future in futures:
                    try:
                        responses.append(future.result())
                    except BaseException as error:  # noqa: BLE001 - gather boundary
                        responses.append(error)
        return self._merge_responses(request, responses, start_pc)

    def _merge_responses(self, request: QueryRequest,
                         responses: Sequence[Union[QueryResponse, BaseException]],
                         start_pc: float) -> QueryResponse:
        prepare = sum(r.prepare_tokens for r in responses
                      if isinstance(r, QueryResponse))
        execute = sum(r.execute_tokens for r in responses
                      if isinstance(r, QueryResponse))
        latency_ms = (time.perf_counter() - start_pc) * 1000.0
        for index, response in enumerate(responses):
            if isinstance(response, BaseException):
                error = f"shard {index}: {type(response).__name__}: {response}"
                shed_reason = None
            elif not response.ok:
                error = f"shard {index}: {response.error}"
                shed_reason = response.shed_reason
            else:
                continue
            return QueryResponse(request=request, result=None,
                                 session_id="scatter", ok=False, error=error,
                                 shed_reason=shed_reason,
                                 prepare_tokens=prepare, execute_tokens=execute,
                                 latency_ms=latency_ms)
        tables = [r.result.final_table for r in responses  # type: ignore[union-attr]
                  if isinstance(r, QueryResponse) and r.result is not None]
        merged_table = self._merge_tables(request.nl_query, tables)
        result = QueryResult(nl_query=request.nl_query, final_table=merged_table,
                             total_tokens=prepare + execute)
        first = next(r for r in responses if isinstance(r, QueryResponse))
        return QueryResponse(request=request, result=result,
                             session_id="scatter", ok=True,
                             prepared_hit=all(
                                 r.prepared_hit for r in responses
                                 if isinstance(r, QueryResponse)),
                             prepare_tokens=prepare, execute_tokens=execute,
                             tokens_used=sum(r.tokens_used for r in responses
                                             if isinstance(r, QueryResponse)),
                             wall_clock_s=max(
                                 r.wall_clock_s for r in responses
                                 if isinstance(r, QueryResponse)),
                             latency_ms=latency_ms,
                             trace_id=first.trace_id)

    def _merge_tables(self, name: str, tables: Sequence[Table]) -> Table:
        """Gather shard result tables into one global result.

        When every shard's table is sorted non-increasing on some shared
        numeric column (with at least one strict decrease somewhere — i.e.
        the query ranked by it), the merge is a stable k-way merge on that
        column descending, shard order breaking ties: the order a single
        process would have produced for a global ranking.  Otherwise the
        result is positional and shard-order concatenation preserves it.
        """
        rows_per_shard = [[dict(row) for row in table] for table in tables]
        merged = [row for rows in rows_per_shard for row in rows]
        sort_column = self._ranking_column(rows_per_shard)
        if sort_column is not None:
            # Stable sort over the shard-order concatenation == a k-way
            # merge with shard index breaking ties.
            merged.sort(key=lambda row: row[sort_column], reverse=True)
        schema = next((t.schema for t in tables if len(t.schema.columns)), None)
        return Table.from_rows("scatter_result", merged, schema=schema)

    @staticmethod
    def _ranking_column(rows_per_shard: Sequence[Sequence[Dict[str, Any]]]
                        ) -> Optional[str]:
        populated = [rows for rows in rows_per_shard if rows]
        if not populated:
            return None
        candidates = [column for column in populated[0][0]
                      if all(isinstance(rows[0].get(column), (int, float))
                             and not isinstance(rows[0].get(column), bool)
                             for rows in populated)]
        for column in candidates:
            non_increasing, strict = True, False
            for rows in populated:
                values = [row.get(column) for row in rows]
                if any(not isinstance(v, (int, float)) or isinstance(v, bool)
                       for v in values):
                    non_increasing = False
                    break
                for left, right in zip(values, values[1:]):
                    if left < right:
                        non_increasing = False
                        break
                    if left > right:
                        strict = True
                if not non_increasing:
                    break
            if non_increasing and strict:
                return column
        return None

    # -- stats / lifecycle --------------------------------------------------------
    def total_tokens(self) -> int:
        """Tokens spent across every shard's model suite."""
        return sum(shard.total_tokens() for shard in self.shards)

    def gateway_stats(self) -> Dict[str, Any]:
        """Element-wise sum of every shard's headline gateway counters."""
        merged: Dict[str, Any] = {}
        for shard in self.shards:
            for key, value in shard.gateway_stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[key] = merged.get(key, 0) + value
        return merged

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard snapshot: routing counters, catalog size, cache size."""
        snapshot = []
        for index, shard in enumerate(self.shards):
            snapshot.append({
                "shard": index,
                "routed": self.metrics.counter(f"shard.{index}.routed").value,
                "catalog_tables": len(shard.catalog),
                "gateway_cache_entries": len(shard.gateway.cache),
                "tokens": shard.total_tokens(),
            })
        return snapshot

    def describe(self) -> str:
        lines = [f"ShardedService: {self.num_shards} shards "
                 f"({self.placement}), {self.total_tokens()} tokens total",
                 self.scheduler.describe()]
        for stats in self.shard_stats():
            lines.append(f"  shard {stats['shard']}: "
                         f"{stats['catalog_tables']} tables, "
                         f"{stats['gateway_cache_entries']} cached results, "
                         f"{stats['routed']} routed, {stats['tokens']} tokens")
        return "\n".join(lines)

    def shutdown(self) -> None:
        """Stop the scatter pool and shut every shard down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.shutdown(wait=True)
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.shutdown()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
