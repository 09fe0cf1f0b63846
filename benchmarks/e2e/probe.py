"""Probes for the traced run: time calls into each layer's public functions
from outside.  The untraced run never imports this module.

``PROBES`` is the declarative table.  ``install()`` wraps every target with
``functools.wraps`` (re-binding every loaded ``repro`` module that imported the
name with ``from ... import``); ``uninstall()`` restores the originals.

* ``boundary`` — records a span (name, layer, start, end, parent, request id).
  The parent is the enclosing span of the call, also across the hand-off to a
  scheduler worker or a pool thread (``handoff`` probes carry it over), so the
  spans of one request share an id and form one tree.
* ``leaf`` — per-row callables: only calls and busy ns are kept, re-entrant
  calls of one metric count once, and the busy time is deducted from the
  enclosing span so that self times still add up.
* ``future`` — like ``boundary``, but the span ends when the returned future
  resolves (time a caller waits for a micro-batch).
* ``count`` — calls only.
* ``handoff`` — ``submit(runner, ...)`` of the scheduler and of thread pools:
  timed like a boundary where it has a metric, and the runner starts in the
  worker thread with the submitting call's span as its parent.

Spans stay in memory; ``worker.py`` writes them out after the window.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter_ns


@dataclass(frozen=True)
class Probe:
    layer: str
    module: str
    qualname: str               # "function" or "Class.method"
    kind: str                   # boundary | leaf | future | count | handoff
    metric: str                 # the per-layer metric the time or count feeds
    request_root: bool = False  # mints a request id when the caller has none
    meter: str = ""             # attribute path from self to a CostMeter (token delta)

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.qualname}"


def _p(layer: str, module: str, qualname: str, kind: str, metric: str, **kw: Any) -> Probe:
    return Probe(layer, f"repro.{module}", qualname, kind, metric, **kw)


#: The simulated-model entry points the default paths reach (batched work
#: runs the serial methods under ``plan_batch``; the ``*_batch`` methods and
#: a few helpers are never called, so they carry no probe).
_MODEL_METHODS = {
    "models.llm": ("SimulatedLLM", ("detect_ambiguity", "generate_keywords", "interpret_query",
                                    "classify_dependency_pattern", "judge_output",
                                    "render_text")),
    "models.vlm": ("SimulatedVLM", ("extract_scene_graph", "answer_visual_question")),
    "models.embeddings": ("EmbeddingModel", ("embed_word", "embed_text", "match_fraction")),
    "models.ner": ("EntityExtractor", ("extract",)),
}

PROBES: Tuple[Probe, ...] = (
    # api
    _p("api", "api.service", "KathDBService.query",
       "boundary", "api.frontend_ms", request_root=True),
    _p("api", "api.service", "KathDBService.submit",
       "boundary", "api.frontend_ms", request_root=True),
    _p("api", "api.service", "KathDBService.__init__", "boundary", "api.ctor_ms"),
    _p("api", "api.session", "Session.__init__", "boundary", "api.session_build_ms"),
    _p("api", "models.lexicon", "Lexicon.copy", "boundary", "api.session_build_ms"),
    _p("api", "models.base", "ModelSuite.fork", "boundary", "api.session_build_ms"),
    _p("api", "core.stack", "QueryStack.build", "boundary", "api.session_build_ms"),
    _p("api", "api.session", "Session.query", "boundary", "api.frontend_ms", request_root=True),
    _p("api", "api.prepared", "PreparedQueryCache.get_or_build", "boundary", "api.prepare_ms"),
    # parser
    _p("parser", "parser.nl_parser", "NLParser.parse", "boundary", "parser.parse_ms"),
    _p("parser", "parser.plan_generator", "LogicalPlanGenerator.generate",
       "boundary", "parser.plan_ms"),
    _p("parser", "parser.plan_generator", "LogicalPlanGenerator.revise",
       "boundary", "parser.plan_ms"),
    _p("parser", "parser.plan_verifier", "PlanVerifier.verify", "boundary", "parser.plan_ms"),
    _p("parser", "interaction.channel", "InteractionChannel.ask_clarification", "count",
       "parser.clarifications_per_query"),
    # optimizer / fao / skills
    _p("optimizer", "optimizer.optimizer", "QueryOptimizer.optimize",
       "boundary", "optimizer.optimize_ms"),
    _p("fao", "fao.codegen", "Coder.generate", "boundary", "fao.codegen_ms"),
    _p("fao", "fao.codegen", "Coder.repair", "boundary", "fao.codegen_ms"),
    _p("fao", "fao.profiler", "Profiler.profile", "boundary", "fao.profile_ms"),
    _p("fao", "fao.critic", "Critic.review", "boundary", "fao.critic_ms"),
    _p("fao", "fao.critic", "Critic.review_and_repair", "boundary", "fao.critic_ms"),
    _p("skills", "skills.store", "SkillStore.lookup", "boundary", "skills.lookup_ms"),
    _p("skills", "skills.validate", "RevalidationHarness.rebuild",
       "boundary", "skills.revalidate_ms"),
    _p("skills", "skills.validate", "RevalidationHarness.revalidate",
       "boundary", "skills.revalidate_ms"),
    # executor
    _p("executor", "executor.engine", "ExecutionEngine.execute", "boundary", "executor.execute_ms"),
    _p("executor", "executor.monitor", "ExecutionMonitor.inspect",
       "boundary", "executor.monitor_ms",
       meter="models.cost_meter"),
    _p("executor", "fao.function", "GeneratedFunction.execute",
       "boundary", "executor.fao_execute_ms"),
    # gateway
    _p("gateway", "gateway.fingerprint", "canonicalize", "leaf", "gateway.fingerprint_ms"),
    _p("gateway", "gateway.fingerprint", "request_key_from_canonical",
       "leaf", "gateway.fingerprint_ms"),
    _p("gateway", "gateway.cache", "ExactResultCache.get", "leaf", "gateway.lookup_ms"),
    _p("gateway", "gateway.semantic", "SemanticNearCache.search", "leaf", "gateway.lookup_ms"),
    _p("gateway", "gateway.gateway", "ModelGateway.invoke", "boundary", "gateway.invoke_ms"),
    _p("gateway", "gateway.vectorized", "GatewayBatchClient.invoke",
       "boundary", "gateway.invoke_ms"),
    _p("gateway", "gateway.batching", "MicroBatcher.submit", "future", "gateway.batch_wait_ms"),
    _p("gateway", "gateway.persist", "GatewayCacheStore.put_exact",
       "boundary", "gateway.persist_write_ms"),
    _p("gateway", "gateway.persist", "GatewayCacheStore.put_semantic",
       "boundary", "gateway.persist_write_ms"),
    _p("gateway", "gateway.persist", "GatewayCacheStore.load_exact",
       "boundary", "gateway.persist_load_ms"),
    _p("gateway", "gateway.persist", "GatewayCacheStore.load_semantic",
       "boundary", "gateway.persist_load_ms"),
    _p("gateway", "gateway.semantic", "SemanticNearCache.restore_persisted", "boundary",
       "gateway.persist_load_ms"),
    # models
    *(_p("models", module, f"{cls}.{method}", "boundary", "models.busy_ms")
      for module, (cls, methods) in _MODEL_METHODS.items() for method in methods),
    _p("models", "models.cost", "CostMeter.record", "boundary", "models.sim_wait_ms"),
    _p("models", "models.cost", "CostMeter.record_batched", "boundary", "models.sim_wait_ms"),
    # relational
    *(_p("relational", "relational.operators", name, "boundary", "relational.operator_ms")
      for name in ("hash_join", "sort", "project")),
    *(_p("relational", "relational.columns", name, "leaf", "relational.cell_get_ms")
      for name in ("RowView.get", "RowView.__getitem__")),
    _p("relational", "relational.columns", "ColumnStore.fork", "leaf", "relational.fork_ms"),
    _p("relational", "relational.table", "Table.fork", "leaf", "relational.fork_ms"),
    # datamodel
    _p("datamodel", "datamodel.views", "ViewPopulator.load_corpus", "boundary",
       "datamodel.load_base_ms_per_doc"),
    _p("datamodel", "datamodel.views", "ViewPopulator.populate_scene_views", "boundary",
       "datamodel.populate_scene_ms_per_doc"),
    _p("datamodel", "datamodel.views", "ViewPopulator.populate_text_views", "boundary",
       "datamodel.populate_text_ms_per_doc"),
    *(_p("datamodel", "datamodel.lineage", f"LineageStore.{name}", "leaf", "datamodel.lineage_ms")
      for name in ("record_source", "record_table", "record_row")),
    # explain
    _p("explain", "explain.explainer", "Explainer.explain_tuple", "boundary", "explain.tuple_ms"),
    _p("explain", "explain.explainer", "Explainer.explain_pipeline",
       "boundary", "explain.pipeline_ms"),
    # sched
    _p("sched", "sched.scheduler", "FairShareScheduler.submit", "handoff", "sched.submit_ms"),
    # sharding
    _p("sharding", "sharding.sharded", "ShardedService.query", "boundary", "sharding.merge_ms",
       request_root=True),
    _p("sharding", "sharding.sharded", "ShardedService.scan", "boundary", "sharding.scan_ms"),
)
#: Pool hand-offs the program makes through the standard library.
POOL_HANDOFF = Probe("stdlib", "concurrent.futures", "ThreadPoolExecutor.submit", "handoff", "")

#: A frame is what the contextvar holds while a span is open:
#: [span id, request id, leaf busy ns inside the span].
_frame: contextvars.ContextVar[Optional[List[int]]] = contextvars.ContextVar(
    "e2e_probe_frame", default=None)


class Recorder:
    """In-memory sink of one traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []            # span name index -> probe name
        self.probes: Dict[str, Probe] = {}    # probe name -> probe
        #: (name index, span id, parent id, request id, start, end, leaf ns, thread, tokens)
        self.spans: List[Tuple[int, int, int, int, int, int, int, int, int]] = []
        self.leaf: Dict[str, Dict[int, List[int]]] = {}   # metric -> thread -> [calls, ns, depth]
        self.counts: Dict[str, Dict[int, List[int]]] = {}  # leaf/count probe -> thread -> [calls]
        self._index: Dict[str, int] = {}      # probe name -> span name index
        self.errors: List[str] = []           # probes that could not be installed
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._restore: List[Callable[[], None]] = []

    # -- reading -----------------------------------------------------------------
    def calls(self) -> Dict[str, int]:
        """Probe name -> times it fired (spans, leaf calls, counts)."""
        fired: Dict[str, int] = {name: 0 for name in self.probes}
        for span in self.spans:
            fired[self.names[span[0]]] += 1
        for name, cells in self.counts.items():
            fired[name] += sum(cell[0] for cell in cells.values())
        return fired

    def leaf_totals(self) -> Dict[str, Tuple[int, int]]:
        """Metric -> (outermost calls, busy ns) over all threads."""
        return {metric: (sum(c[0] for c in cells.values()), sum(c[1] for c in cells.values()))
                for metric, cells in self.leaf.items()}

    # -- installing --------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self, probes: Tuple[Probe, ...] = PROBES + (POOL_HANDOFF,)) -> None:
        if self.installed:
            raise RuntimeError("probes are already installed")
        for probe in probes:
            try:
                self._install_one(probe)
            except (ImportError, AttributeError) as error:
                self.errors.append(f"{probe.module}:{probe.qualname}: {error}")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _install_one(self, probe: Probe) -> None:
        module = importlib.import_module(probe.module)
        if probe.metric:
            self.probes.setdefault(probe.name, probe)
        owner_name, _, attr = probe.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr] if attr in owner.__dict__ else getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(probe, raw.__func__))
            else:
                wrapped = self._wrap(probe, raw)
            had_own = attr in owner.__dict__
            setattr(owner, attr, wrapped)
            self._restore.append(
                (lambda: setattr(owner, attr, raw)) if had_own else (lambda: delattr(owner, attr)))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(probe, original)
        # Re-bind the defining module and every loaded repro module that
        # imported the function by name.
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)
                    self._restore.append(
                        lambda m=loaded, n=name: setattr(m, n, original))

    # -- wrappers ----------------------------------------------------------------
    def _wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        if probe.kind == "leaf":
            return self._leaf(probe, fn)
        if probe.kind == "count":
            return self._count(probe, fn)
        if probe.kind == "handoff":
            return self._handoff(probe, fn)
        return self._boundary(probe, fn)

    def _boundary(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = self._index.setdefault(probe.name, len(self.names))
        if index == len(self.names):
            self.names.append(probe.name)
        spans, ids, requests = self.spans, self._ids, self._requests
        root, waits = probe.request_root, probe.kind == "future"
        meter_path = probe.meter.split(".") if probe.meter else None
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _frame.get()
            request = parent[1] if parent is not None else 0
            if root and not request:
                request = next(requests)
            frame = [next(ids), request, 0]
            meter = None
            if meter_path is not None:
                meter = args[0]
                for part in meter_path:
                    meter = getattr(meter, part)
                marker = meter.snapshot()
            parent_id = parent[0] if parent is not None else 0
            token = _frame.set(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((index, frame[0], parent_id, request, start, now(), frame[2],
                              thread_id(), 0))
                raise
            finally:
                end = now()
                _frame.reset(token)
            tokens = meter.tokens_since(marker) if meter is not None else 0
            record = (index, frame[0], parent_id, request, start, end, frame[2],
                      thread_id(), tokens)
            if waits:
                # The caller blocks on the future next: the span ends when it resolves.
                result.add_done_callback(
                    lambda _f: spans.append(record[:5] + (now(),) + record[6:]))
            else:
                spans.append(record)
            return result
        return wrapper

    def _leaf(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        cells = self.leaf.setdefault(probe.metric, {})
        fired = self.counts.setdefault(probe.name, {})
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            thread = thread_id()
            cell = cells.get(thread)
            if cell is None:
                cell = cells[thread] = [0, 0, 0]
            if cell[2]:                 # re-entrant: the outermost call keeps the time
                return fn(*args, **kwargs)
            cell[2] = 1
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = now() - start
                cell[2] = 0
                cell[0] += 1
                cell[1] += busy
                own = fired.get(thread)
                if own is None:
                    own = fired[thread] = [0]
                own[0] += 1
                frame = _frame.get()
                if frame is not None:
                    frame[2] += busy
        return wrapper

    def _count(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        cells = self.leaf.setdefault(probe.metric, {})
        fired = self.counts.setdefault(probe.name, {})
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            thread = thread_id()
            cells.setdefault(thread, [0, 0, 0])[0] += 1
            fired.setdefault(thread, [0])[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _handoff(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``submit(self, runner, ...)``: the runner inherits the caller's frame."""
        timed = self._boundary(probe, fn) if probe.metric else fn

        @functools.wraps(fn)
        def wrapper(self_: Any, runner: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            parent = _frame.get()
            if parent is None:
                return timed(self_, runner, *args, **kwargs)
            carried = [parent[0], parent[1], 0]     # same ids; own leaf accumulator

            @functools.wraps(runner)
            def carrying(*a: Any, **k: Any) -> Any:
                token = _frame.set(carried)
                try:
                    return runner(*a, **k)
                finally:
                    _frame.reset(token)
            return timed(self_, carrying, *args, **kwargs)
        return wrapper
