"""The KathDB system facade.

Wires together every subsystem described in the paper (Figure 1): the
simulated foundation models, the relational catalog with its multimodal
views, the interactive NL parser, the plan writer/verifier loop, the
cost-based optimizer with its coder/profiler/critic agents, the execution
engine with lineage + on-the-fly repair + semantic monitoring, and the
result explainer.

Since the session/service redesign this facade is a thin backward-compatible
wrapper over one *default session* of a :class:`~repro.api.service.KathDBService`:
the default session shares the service's model suite (its meter and lexicon)
and lineage store, routed through a private pass-through gateway that caches
nothing (so the historical single-user accounting is unchanged), while
:meth:`session` hands out fully isolated sessions and :attr:`service`
exposes the concurrent request/response API.  Querying, planning and
explanation are the default session's.

Typical use::

    db = KathDB(KathDBConfig(seed=7))
    db.load_corpus(build_movie_corpus(size=20, seed=7))
    user = ScriptedUser({"exciting": "...uncommon scenes..."},
                        ["I prefer more recent movies as well when scoring"])
    result = db.query("Sort the films in the table by how exciting they are, "
                      "but the poster should be 'boring'.", user=user)
    print(result.final_table.pretty())
    print(db.explain_pipeline(result))
    print(db.explain_tuple(result, result.rows()[0]["lid"]).describe())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.request import QueryOptions, QueryRequest
from repro.api.service import KathDBService
from repro.api.session import Session
from repro.core.config import KathDBConfig
from repro.data.mmqa import MovieCorpus
from repro.datamodel.views import PopulationReport
from repro.executor.result import QueryResult
from repro.explain.explainer import TupleExplanation
from repro.gateway.gateway import ModelGateway
from repro.interaction.channel import InteractionChannel, Transcript
from repro.interaction.user import SilentUser, UserAgent
from repro.parser.logical_plan import LogicalPlan
from repro.parser.nl_parser import ParseOutcome
from repro.parser.plan_verifier import VerificationReport


class KathDB:
    """The explainable multimodal DBMS with human-AI collaboration."""

    def __init__(self, config: Optional[KathDBConfig] = None):
        self.config = config or KathDBConfig()
        self.service = KathDBService(self.config)
        # The service's suite (same meter and lexicon), routed through a
        # private pass-through gateway: every call executes and is billed
        # as before, and none of it shows in the service's gateway stats.
        self.models = self.service.models.routed(ModelGateway.pass_through(),
                                                 "default")
        # Shared-core aliases (unchanged public surface).
        self.catalog = self.service.catalog
        self.lineage = self.service.lineage
        self.registry = self.service.registry
        self.populator = self.service.populator
        self.profile_cache = self.service.profile_cache
        self.skill_store = self.service.skill_store
        # The default session shares the facade's models and lineage store, so
        # single-user behaviour (token ledger, lid sequence) is identical to
        # the pre-session design.
        self._session = Session(self.service, "default",
                                models=self.models, lineage=self.lineage)
        stack = self._session.stack
        self.coder = stack.coder
        self.parser = stack.parser
        self.plan_generator = stack.plan_generator
        self.plan_verifier = stack.plan_verifier
        self.optimizer = stack.optimizer
        self.engine = stack.engine
        self.explainer = stack.explainer
        self.lineage_qa = stack.lineage_qa
        self.population_report: Optional[PopulationReport] = None

    @property
    def last_result(self) -> Optional[QueryResult]:
        """The default session's latest result (assignable)."""
        return self._session.last_result

    @last_result.setter
    def last_result(self, result: Optional[QueryResult]) -> None:
        self._session.last_result = result

    # -- sessions ----------------------------------------------------------------------
    @property
    def default_session(self) -> Session:
        """The session behind :meth:`query` (shares this facade's state)."""
        return self._session

    def session(self, user: Optional[UserAgent] = None) -> Session:
        """A fresh *isolated* session over this instance's loaded corpus."""
        return self.service.session(user=user)

    # -- data loading ------------------------------------------------------------------
    def load_corpus(self, corpus: MovieCorpus, populate_views: bool = True) -> PopulationReport:
        """Load a multimodal corpus: base tables plus the modality views.

        This is the paper's "pre-written view-population function" step: it is
        the only part of the pipeline that is not generated per query.
        """
        self.population_report = self.service.load_corpus(corpus,
                                                          populate_views=populate_views)
        return self.population_report

    # -- querying --------------------------------------------------------------------------
    def query(self, nl_query: str, user: Optional[UserAgent] = None,
              transcript: Optional[Transcript] = None,
              options: Optional[QueryOptions] = None) -> QueryResult:
        """Answer one NL query end to end (parse -> plan -> optimize -> execute).

        The facade keeps its historical semantics: every call gets a fresh
        transcript (unless one is passed in) and re-parses/re-optimizes from
        scratch (no prepared-plan reuse — pass ``options`` with
        ``use_prepared=True`` or use :meth:`session` / :attr:`service` to opt
        into the cache).
        """
        request = QueryRequest(nl_query=nl_query, user=user or SilentUser(),
                               options=options or QueryOptions(use_prepared=False),
                               transcript=transcript if transcript is not None
                               else Transcript())
        return self._session.query(request).result

    def parse_and_plan(self, nl_query: str,
                       channel: InteractionChannel,
                       max_plan_rounds: int = 3
                       ) -> Tuple[ParseOutcome, LogicalPlan, VerificationReport]:
        """Run the parser and the plan writer/verifier loop for one query."""
        return self._session.parse_and_plan(nl_query, channel, max_plan_rounds)

    # -- explanation -----------------------------------------------------------------------
    def explain_pipeline(self, result: Optional[QueryResult] = None) -> str:
        """Coarse-grained explanation of the latest (or given) query."""
        return self._session.explain_pipeline(result)

    def explain_tuple(self, result: Optional[QueryResult], lid: int) -> TupleExplanation:
        """Fine-grained explanation of one output tuple by lineage id."""
        return self._session.explain_tuple(result, lid)

    def ask(self, question: str, result: Optional[QueryResult] = None) -> str:
        """Free-form NL question over the latest (or given) query's lineage."""
        return self._session.ask(question, result)

    # -- versioning: roll-backs and iterative refinement --------------------------------------
    def rollback_function(self, name: str):
        """Return the previous version of a generated function (paper Section 4).

        Versions are immutable; this only *selects* the earlier implementation.
        Combine with :meth:`rerun_with_versions` to re-execute the last query
        using it.
        """
        return self.registry.rollback(name)

    def rerun_with_versions(self, result: Optional[QueryResult] = None,
                            versions: Optional[Dict[str, int]] = None,
                            user: Optional[UserAgent] = None) -> QueryResult:
        """Re-execute a query's physical plan with specific function versions.

        ``versions`` maps function names to the version id to use (e.g. the one
        returned by :meth:`rollback_function`); unmentioned operators keep the
        implementation the optimizer chose.  This is the paper's "safe
        roll-backs to a prior version" / iterative-refinement workflow.  The
        rerun *continues the source result's transcript*, so the explanation
        history of the original run is preserved alongside the new turns.
        """
        source = self._session._result(result)
        if source.physical_plan is None:
            raise ValueError("the result carries no physical plan to re-run")
        plan = source.physical_plan.clone().pin_versions(self.registry, versions or {})
        channel = InteractionChannel(user or SilentUser(), source.transcript)
        rerun = self.engine.execute(plan, channel, nl_query=source.nl_query)
        rerun.sketch = source.sketch
        rerun.intent = source.intent
        rerun.logical_plan = source.logical_plan
        self.last_result = rerun
        return rerun

    # -- introspection ----------------------------------------------------------------------
    @property
    def cost_meter(self):
        """The shared token/cost ledger."""
        return self.models.cost_meter

    def total_tokens(self) -> int:
        """Total tokens spent by this instance so far."""
        return self.models.cost_meter.total_tokens

    def function_versions(self) -> Dict[str, int]:
        """function name -> number of generated versions."""
        return {name: self.registry.version_count(name) for name in self.registry.names()}

    def describe_catalog(self, kinds: Optional[List[str]] = None) -> str:
        """The system-catalog description handed to the agents."""
        return self.catalog.describe(kinds=kinds)
