"""Sessions: isolated per-caller query state over a shared service core.

A :class:`Session` owns everything one caller's queries mutate — a private
intermediates namespace, a per-session transcript, a scoped lineage store, a
forked model suite (own cost meter, own lexicon copy) — while sharing the
expensive read-only state (catalog, corpus views, function registry, prepared
plans) with every other session of the same :class:`KathDBService`.  Two
sessions can therefore run queries concurrently and produce exactly the rows
a serial run would.  The request front end — parse, plan, verify and revise,
optimize, execute, explain — is written once, here; the
:class:`~repro.core.kathdb.KathDB` facade delegates to its default session.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.api.prepared import PreparedQuery, prepared_key
from repro.api.request import QueryOptions, QueryRequest, QueryResponse
from repro.core.stack import QueryStack
from repro.datamodel.lineage import LineageStore, ScopedLineageStore
from repro.errors import PlanVerificationError
from repro.executor.context import ExecutionContext
from repro.executor.result import QueryResult
from repro.interaction.channel import InteractionChannel, Transcript
from repro.interaction.user import SilentUser, UserAgent
from repro.models.base import ModelSuite
from repro.obs.trace import current_trace, span as obs_span
from repro.parser.logical_plan import LogicalPlan
from repro.parser.nl_parser import ParseOutcome
from repro.parser.plan_verifier import VerificationReport
from repro.sched.cancel import current_cancel_token
from repro.sched.scheduler import current_task as sched_current_task
from repro.relational.table import Table
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import KathDBService


class Session:
    """One caller's isolated query context.

    Created via :meth:`KathDBService.session` (isolated: a forked suite
    routed through the service's gateway, scoped lineage) or by the legacy
    facade with explicit components (shared: the service's suite routed
    through a private pass-through gateway, and the service's lineage
    store).  Either way every model call goes through a gateway client, so
    the session's gateway counters and quota position are always live.
    """

    def __init__(self, service: "KathDBService", session_id: str,
                 user: Optional[UserAgent] = None,
                 models: Optional[ModelSuite] = None,
                 lineage: Optional[LineageStore] = None,
                 transcript: Optional[Transcript] = None,
                 stack: Optional[QueryStack] = None,
                 tenant_id: Optional[str] = None):
        self.service = service
        self.id = session_id
        # The tenant this session bills and queues under.  Defaulting to the
        # session id preserves the pre-scheduler behavior (one throwaway
        # session = one ledger entry) for callers that never name a tenant.
        self.tenant = tenant_id or session_id
        self.default_user = user or SilentUser()
        if models is not None:
            # Legacy facade path: the caller wired an already-routed suite.
            self.models = models
        else:
            # Route the fork through the shared gateway: identical calls
            # across sessions are cached/coalesced/batched service-wide
            # while misses still charge this session's private meter.
            self.models = service.models.fork().routed(
                service.gateway, session_id, tenant_id=self.tenant)
        # ``or`` would discard an *empty* store (LineageStore is sized, and a
        # fresh one is falsy), so test for None explicitly.
        self.lineage = lineage if lineage is not None else ScopedLineageStore(service.lineage)
        self.transcript = transcript if transcript is not None else Transcript()
        self.stack = stack or QueryStack.build(
            service.config, self.models, service.catalog, self.lineage,
            service.registry, profile_cache=service.profile_cache,
            skill_store=service.skill_store)
        self._intermediates: Dict[str, Table] = {}
        self._table_lids: Dict[str, int] = {}
        self.last_result: Optional[QueryResult] = None
        # The most recent query's trace id, surviving even when the query
        # raised (the service's error responses link back through it).
        self.last_trace_id: Optional[str] = None

    # -- state accessors -------------------------------------------------------------
    @property
    def engine(self):
        return self.stack.engine

    @property
    def explainer(self):
        return self.stack.explainer

    def intermediates(self) -> Dict[str, Table]:
        """This session's materialized intermediate tables (name -> table).

        This replaces the old behaviour of registering every intermediate into
        the shared catalog: the namespace is now private to the session.  The
        returned tables are O(columns) copy-on-write forks — callers can read
        (or even mutate) them freely without touching the session's own
        namespace, and untouched columns stay physically shared.
        """
        return {name: table.fork() for name, table in self._intermediates.items()}

    def execution_context(self) -> ExecutionContext:
        """A context over the shared catalog and this session's scopes.

        Both the intermediates namespace and the table-lid map persist across
        the session's queries, so a later query that references an earlier
        result keeps its provenance chain intact.
        """
        if isinstance(self.lineage, ScopedLineageStore):
            # A scope created before the corpus finished loading (or before
            # legacy facade queries) may still slide forward to avoid lid
            # collisions with the shared store.
            self.lineage.rebase_if_unused()
        context = ExecutionContext.for_catalog(self.service.catalog,
                                               lineage=self.lineage,
                                               intermediates=self._intermediates,
                                               table_lids=self._table_lids)
        # Carry the active trace so work handed to other threads can
        # re-attach (repro.obs.trace.attach); same-thread spans propagate
        # through the contextvar regardless.
        context.trace = current_trace()
        # Carry the scheduler's cancel token: the engine checks it at
        # operator boundaries, the gateway before each model call.
        context.cancel = current_cancel_token()
        return context

    def total_tokens(self) -> int:
        """Tokens spent by this session so far."""
        return self.models.cost_meter.total_tokens

    def gateway_stats(self, window_s: Optional[float] = None
                      ) -> Dict[str, object]:
        """What the shared gateway has done for *this* session.

        The cumulative block is this session's own counters (hits, misses,
        semantic hits, tokens saved/charged, batch savings); ``window_s``
        attaches a ``windowed`` entry covering only this session's events
        over the last that-many seconds — the per-tenant live view the
        ROADMAP's multi-tenant quota-tuning item asked for.
        """
        client = self.models.gateway_client
        stats: Dict[str, object] = dict(client.counters.as_dict())
        stats["session_id"] = self.id
        if window_s is not None:
            stats["windowed"] = client.gateway.windowed_stats(
                window_s, session_id=client.session_id)
        return stats

    # -- quota state -----------------------------------------------------------------
    def quota_state(self) -> Dict[str, Optional[int]]:
        """This session's live quota position (see the properties below).

        It is read from the gateway's admission ledger, the authority the
        quota is enforced against.
        """
        return self.models.gateway_client.quota_state()

    @property
    def tokens_used(self) -> int:
        """Tokens counted against this session's gateway quota so far."""
        return self.quota_state()["tokens_used"]

    @property
    def tokens_remaining(self) -> Optional[int]:
        """Quota headroom left, or None when no per-session quota applies."""
        return self.quota_state()["tokens_remaining"]

    @property
    def quota_exhausted(self) -> bool:
        """True when the next gateway miss would be refused over quota."""
        return bool(self.quota_state()["quota_exhausted"])

    # -- querying --------------------------------------------------------------------
    def query(self, request: Union[str, QueryRequest],
              user: Optional[UserAgent] = None,
              options: Optional[QueryOptions] = None) -> QueryResponse:
        """Answer one NL query end to end inside this session.

        Each query opens one trace (when the service's tracer is enabled):
        a root ``query`` span with stage children (prepare → parse/plan/
        optimize on a cold compile, execute) and, below those, operator and
        model-call spans recorded by the engine and the gateway.  The trace
        id rides back on the response; ``latency_ms`` is the end-to-end
        wall time regardless of tracing.
        """
        if isinstance(request, str):
            request = QueryRequest(nl_query=request, user=user, options=options or QueryOptions())
        start_pc = time.perf_counter()
        with self.service.tracer.trace("query", session_id=self.id,
                                       query=request.nl_query) as trace:
            if trace is not None:
                self.last_trace_id = trace.trace_id
                self._record_queue_span(trace)
            response = self._answer(request)
            if trace is not None:
                rows = (len(response.result.final_table)
                        if response.result is not None else 0)
                trace.root.tag(tokens=response.total_tokens, rows_out=rows,
                               prepared_hit=response.prepared_hit)
        response.latency_ms = (time.perf_counter() - start_pc) * 1000.0
        if trace is not None:
            # Attached after the scope closed, so the root span's duration
            # is final; ``response.trace_spans`` summarizes lazily.
            response.trace_id = trace.trace_id
            response._trace = trace
        return response

    def _record_queue_span(self, trace) -> None:
        """Backdate a ``queue`` span covering this request's time-in-queue.

        The scheduler stamps enqueue/dispatch on the ``perf_counter`` clock
        (the same clock every span uses), so the span slots into the trace
        tree before the stage children and feeds the registry's
        ``latency_ms.queue`` histogram through normal trace aggregation.
        """
        task = sched_current_task()
        if task is None or task.dispatch_pc is None:
            return
        span = trace.begin("queue", trace.root, kind="queue",
                           tags={"tenant": task.tenant,
                                 "sched_class": task.sched_class})
        span.start_pc = task.enqueue_pc
        span.finish()
        span.end_pc = task.dispatch_pc

    def _answer(self, request: QueryRequest) -> QueryResponse:
        """The query pipeline body (runs inside the trace scope, if any)."""
        opts = request.options
        agent = request.user or self.default_user
        transcript = request.transcript if request.transcript is not None else self.transcript
        channel = InteractionChannel(agent, transcript)

        gateway_counters = self.models.gateway_client.counters
        gateway_marker = gateway_counters.snapshot()

        timer = Timer()
        with timer:
            with obs_span("prepare", kind="stage") as prep_sp:
                prepared, hit = self._prepare(request, channel)
                prep_sp.tag(prepared_hit=hit,
                            tokens=0 if hit else prepared.prepare_tokens)
            plan = prepared.instantiate()
            if opts.function_versions:
                plan.pin_versions(self.service.registry, opts.function_versions)

            execute_marker = self.models.cost_meter.snapshot()
            with obs_span("execute", kind="stage") as exec_sp:
                result = self.stack.engine.execute(plan, channel,
                                                   nl_query=request.nl_query,
                                                   context=self.execution_context())
                execute_tokens = self.models.cost_meter.tokens_since(execute_marker)
                exec_sp.tag(tokens=execute_tokens,
                            rows_out=len(result.final_table))

        self._adopt_repairs(prepared, plan, result, opts.function_versions)
        result.sketch = prepared.parse_outcome.sketch
        result.intent = prepared.parse_outcome.intent
        result.logical_plan = prepared.logical_plan
        self.last_result = result

        response = QueryResponse(request=request, result=result, session_id=self.id,
                                 prepared_hit=hit,
                                 prepare_tokens=0 if hit else prepared.prepare_tokens,
                                 optimize_tokens=0 if hit else
                                 prepared.optimization.tokens_spent,
                                 execute_tokens=execute_tokens,
                                 wall_clock_s=timer.elapsed,
                                 # What the gateway did for *this* request
                                 # (per-session counters are race-free: a
                                 # session runs one query at a time).
                                 gateway_stats=gateway_counters.delta(gateway_marker))
        quota = self.quota_state()
        response.tokens_used = quota["tokens_used"]
        response.tokens_remaining = quota["tokens_remaining"]
        response.quota_exhausted = bool(quota["quota_exhausted"])
        if self.service.skill_store is not None:
            response.skill_store_stats = self.service.skill_store.stats()
        if opts.explain:
            response.explanation = self.stack.explainer.explain_pipeline(result)
        if opts.explain_top and len(result.final_table) and \
                result.final_table.schema.has_column("lid"):
            top_lid = result.rows()[0]["lid"]
            if top_lid is not None:
                response.top_explanation = \
                    self.stack.explainer.explain_tuple(result, top_lid).describe()
        return response

    def _prepare(self, request: QueryRequest,
                 channel: InteractionChannel) -> Tuple[PreparedQuery, bool]:
        """Fetch the compiled plan from the service cache, or compile it here."""
        cache = self.service.prepared
        agent = channel.user
        user_fp = agent.interaction_fingerprint()
        cacheable = (cache is not None and request.options.use_prepared
                     and user_fp is not None)
        if not cacheable:
            if cache is not None:
                cache.note_uncacheable()
            return self._compile(request, channel, key=None), False

        key = prepared_key(request.nl_query, self.service.catalog_fingerprint(),
                           user_fp, self.models.lexicon.fingerprint())
        return cache.get_or_build(key, lambda: self._compile(request, channel, key=key))

    def _compile(self, request: QueryRequest, channel: InteractionChannel,
                 key) -> PreparedQuery:
        """Parse, plan, verify, and optimize one query (the expensive path)."""
        marker = self.models.cost_meter.snapshot()
        parse_outcome, plan, report = self.parse_and_plan(
            request.nl_query, channel, request.options.max_plan_rounds)
        physical, optimization = self.stack.optimizer.optimize(plan)
        return PreparedQuery(key=key, nl_query=request.nl_query,
                             parse_outcome=parse_outcome, logical_plan=plan,
                             verification=report, physical_plan=physical,
                             optimization=optimization,
                             prepare_tokens=self.models.cost_meter.tokens_since(marker))

    def parse_and_plan(self, nl_query: str, channel: InteractionChannel,
                       max_plan_rounds: int = 3
                       ) -> Tuple[ParseOutcome, LogicalPlan, VerificationReport]:
        """Run the parser and the plan writer/verifier loop for one query.

        Raises :class:`~repro.errors.PlanVerificationError` when the
        verifier still rejects the plan after ``max_plan_rounds`` revisions.
        """
        with obs_span("parse", kind="stage"):
            parse_outcome = self.stack.parser.parse(nl_query, channel)
        with obs_span("plan", kind="stage") as plan_sp:
            plan = self.stack.plan_generator.generate(parse_outcome.sketch,
                                                      parse_outcome.intent)
            report = self.stack.plan_verifier.verify(plan)
            rounds = 0
            while not report.approved and rounds < max_plan_rounds:
                plan = self.stack.plan_generator.revise(plan, report.hints)
                report = self.stack.plan_verifier.verify(plan)
                rounds += 1
            plan_sp.tag(revision_rounds=rounds, approved=report.approved)
            if not report.approved:
                raise PlanVerificationError(
                    "the plan verifier rejected the logical plan after "
                    f"{max_plan_rounds} revision rounds: {report.problems}")
        return parse_outcome, plan, report

    def _adopt_repairs(self, prepared: PreparedQuery, executed_plan, result,
                       pins: Dict[str, int]) -> None:
        """Fold on-the-fly repairs back into the cached plan.

        Execution runs on a clone, so without this every prepared hit would
        start from the original faulty implementation and re-pay the same
        repair (and re-register one more registry version) on every request.
        The repaired function is written back operator-by-operator; pinned
        operators are skipped (their version was the caller's choice).
        ``operator.function`` assignment is atomic, so concurrent executions
        at worst write back equivalent repairs.
        """
        records = {record.operator_name: record for record in result.records}
        for cached_op, run_op in zip(prepared.physical_plan.operators,
                                     executed_plan.operators):
            record = records.get(run_op.name)
            if record is None or run_op.name in pins:
                continue
            if (record.repairs or record.anomalies) and \
                    run_op.function is not cached_op.function:
                cached_op.function = run_op.function

    # -- explanation -----------------------------------------------------------------
    def explain_pipeline(self, result: Optional[QueryResult] = None) -> str:
        """Coarse-grained explanation of this session's latest (or given) result."""
        return self.stack.explainer.explain_pipeline(self._result(result))

    def explain_tuple(self, result: Optional[QueryResult], lid: int):
        """Fine-grained explanation of one output tuple by lineage id."""
        return self.stack.explainer.explain_tuple(self._result(result), lid)

    def ask(self, question: str, result: Optional[QueryResult] = None) -> str:
        """Free-form NL question over a result's lineage."""
        resolved = self._result(result)
        answer = self.stack.lineage_qa.ask(question, resolved)
        if resolved.transcript is not None:
            channel = InteractionChannel(SilentUser(), resolved.transcript)
            channel.record_explanation_request(question, answer)
        return answer

    def _result(self, result: Optional[QueryResult]) -> QueryResult:
        resolved = result or self.last_result
        if resolved is None:
            raise ValueError("no query has been executed in this session yet")
        return resolved

    def __repr__(self) -> str:
        return (f"Session(id={self.id!r}, queries={len(self.transcript)}, "
                f"intermediates={len(self._intermediates)})")
