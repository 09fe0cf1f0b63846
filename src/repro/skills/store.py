"""The durable FAO skill store: lookup, validate, register, demote.

``SkillStore`` ties the pieces together: the persistence backend holds the
records, the retrieval index finds exact and near-match candidates, and the
revalidation harness decides whether a candidate may be registered.  The
optimizer consults :meth:`lookup` before generating code and calls
:meth:`put` after the fresh codegen → profile → critic loop accepts an
implementation; the execution engine reports repair-loop evictions through
:meth:`record_production_failure`, which demotes the backing record so the
next prepare regenerates through the critic instead of reusing bad code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.fao.critic import Critic, CriticVerdict
from repro.fao.function import FunctionContext, GeneratedFunction
from repro.fao.profiler import ProfileResult, Profiler
from repro.executor.monitor import ExecutionMonitor
from repro.fao.library import ImplementationLibrary
from repro.models.base import ModelSuite
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as obs_span
from repro.optimizer.profile_cache import CachedProfile
from repro.parser.logical_plan import LogicalPlanNode
from repro.relational.table import Table
from repro.skills.backends import FileBackend, MemoryBackend, SkillBackend
from repro.skills.record import (
    STATUS_DEMOTED,
    SkillRecord,
    node_fingerprint,
    schema_fingerprint,
    signature_text,
)
from repro.skills.retrieval import RetrievalIndex, record_key
from repro.skills.validate import RevalidationHarness


@dataclass
class SkillHit:
    """A validated retrieval result, ready to register as a physical operator."""

    record: SkillRecord
    function: GeneratedFunction
    profile: ProfileResult
    sample_output: Optional[Table]
    kind: str  # "exact" | "near"


class SkillStore:
    """Durable, retrievable, validated storage for generated functions."""

    #: Counter names, in the order ``stats()`` has always reported them.
    COUNTER_NAMES: Tuple[str, ...] = (
        "exact_hits", "near_hits", "misses", "stores",
        "revalidations", "revalidation_failures", "demotions",
    )

    def __init__(self, backend: Optional[SkillBackend] = None,
                 library: Optional[ImplementationLibrary] = None,
                 retrieval_threshold: float = 0.9,
                 provenance: Optional[Dict[str, Any]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.backend = backend or MemoryBackend()
        self.retrieval = RetrievalIndex(self.backend, threshold=retrieval_threshold)
        self.harness = RevalidationHarness(library=library)
        self.provenance = dict(provenance or {})
        # Counters live in the (possibly service-wide) metrics registry under
        # ``skills.*``; pre-created so ``stats()`` always returns the full dict.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name in self.COUNTER_NAMES:
            self.metrics.counter(f"skills.{name}")

    # -- bookkeeping -----------------------------------------------------------
    def _bump(self, counter: str, amount: int = 1) -> None:
        self.metrics.counter(f"skills.{counter}").inc(amount)

    def stats(self) -> Dict[str, int]:
        return {name: self.metrics.counter(f"skills.{name}").value
                for name in self.COUNTER_NAMES}

    def __len__(self) -> int:
        return len(self.retrieval.active_records())

    def source_sink(self) -> Optional[SkillBackend]:
        """The backend, when it can double as the registry's source sink."""
        return self.backend if isinstance(self.backend, FileBackend) else None

    def describe(self) -> str:
        stats = self.stats()
        counters = ", ".join(f"{key}={stats[key]}" for key in sorted(stats))
        return f"skill store ({self.backend.describe()}); {counters}"

    def close(self) -> None:
        self.backend.close()

    # -- fingerprints ----------------------------------------------------------
    def _fingerprints(self, node: LogicalPlanNode,
                      inputs: Dict[str, Table], models: ModelSuite) -> Dict[str, str]:
        schema_fp = schema_fingerprint(inputs)
        lexicon_fp = models.lexicon.fingerprint()
        return {
            "schema": schema_fp,
            "lexicon": lexicon_fp,
            "node": node_fingerprint(node.family, node, schema_fp, lexicon_fp),
        }

    # -- retrieval -------------------------------------------------------------
    def lookup(self, node: LogicalPlanNode, inputs: Dict[str, Table],
               context: FunctionContext, *, models: ModelSuite, profiler: Profiler,
               critic: Critic, monitor: Optional[ExecutionMonitor] = None,
               sample_size: Optional[int] = None) -> Optional[SkillHit]:
        """Find, rebuild, and revalidate a stored skill for ``node``.

        Exact hits replay the stored implementation; near matches transfer a
        previously validated template choice to a similar predicate (and are
        stored under the new fingerprint when they survive revalidation).
        Every failure path returns ``None`` so the optimizer falls through to
        fresh codegen — retrieval must never surface an error.
        """
        prints = self._fingerprints(node, inputs, models)
        record = self.retrieval.exact(prints["node"])
        if record is not None:
            hit = self._try_candidate(record, node, inputs, context, models=models,
                                      profiler=profiler, critic=critic, monitor=monitor,
                                      sample_size=sample_size, kind="exact")
            if hit is not None:
                self._bump("exact_hits")
                return hit
            # The exact record was demoted by _try_candidate; fall through to
            # near-match retrieval over the remaining records.

        near = self.retrieval.near(node.family, signature_text(node.family, node), models)
        if near is not None:
            hit = self._try_candidate(near[0], node, inputs, context, models=models,
                                      profiler=profiler, critic=critic, monitor=monitor,
                                      sample_size=sample_size, kind="near")
            if hit is not None:
                self._bump("near_hits")
                # Persist the transfer under the new fingerprint so the next
                # restart exact-hits it directly.
                self.put(node, hit.function, hit.profile,
                         CriticVerdict(ok=True, checked_semantics=True),
                         models=models, inputs=inputs)
                return hit

        self._bump("misses")
        return None

    def _try_candidate(self, record: SkillRecord, node: LogicalPlanNode,
                       inputs: Dict[str, Table], context: FunctionContext, *,
                       models: ModelSuite, profiler: Profiler, critic: Critic,
                       monitor: Optional[ExecutionMonitor],
                       sample_size: Optional[int], kind: str) -> Optional[SkillHit]:
        exact = kind == "exact"
        function, reason = self.harness.rebuild(record, node, exact=exact)
        if function is None:
            # A near-match that fails to rebuild for *this* node may still be
            # valid for its own; only integrity failures demote.
            if exact or "parses" in reason:
                self.demote(record.fingerprint, reason)
            return None

        self._bump("revalidations")
        with obs_span("skill_revalidate", kind="stage", node=node.name,
                      skill_kind=kind) as reval_sp:
            outcome = self.harness.revalidate(record, function, node, inputs, context,
                                              profiler, critic, monitor=monitor,
                                              exact=exact, sample_size=sample_size)
            reval_sp.tag(ok=outcome.ok)
        if not outcome.ok:
            self._bump("revalidation_failures")
            if exact:
                self.demote(record.fingerprint, outcome.reason)
            return None

        function.skill_fingerprint = record.fingerprint  # type: ignore[attr-defined]
        record.uses += 1
        if exact and outcome.checked_semantics and \
                not record.verdict.get("checked_semantics"):
            # Upgrade the stored verdict so the next restart skips the critic.
            record.verdict = {"ok": True, "checked_semantics": True}
        self.backend.put(record_key(record.fingerprint), record.to_dict())

        assert outcome.profile is not None
        synthetic = self._synthetic_profile(record, function, outcome.profile)
        return SkillHit(record=record, function=function, profile=synthetic,
                        sample_output=outcome.output, kind=kind)

    def _synthetic_profile(self, record: SkillRecord, function: GeneratedFunction,
                           measured: ProfileResult) -> ProfileResult:
        """Price the hit with the stored per-row statistics, keep live samples."""
        try:
            stats = CachedProfile.from_dict(record.profile)
        except (TypeError, KeyError, ValueError):
            return measured
        profile = stats.as_profile(function.name, function.variant, measured.rows_in)
        profile.input_sample = measured.input_sample
        profile.output_sample = measured.output_sample
        profile.rows_out = measured.rows_out
        profile.runtime_s = measured.runtime_s
        return profile

    # -- registration ----------------------------------------------------------
    def put(self, node: LogicalPlanNode, function: GeneratedFunction,
            profile: ProfileResult, verdict: CriticVerdict, *,
            models: ModelSuite, inputs: Dict[str, Table]) -> Optional[str]:
        """Store a freshly validated implementation; returns its fingerprint."""
        if not profile.success or not verdict.ok:
            return None
        prints = self._fingerprints(node, inputs, models)
        stats = CachedProfile()
        stats.update(profile)
        record = SkillRecord.build(
            fingerprint=prints["node"], family=node.family, node=node, function=function,
            schema_fp=prints["schema"], lexicon_fp=prints["lexicon"],
            profile=stats.to_dict(),
            verdict={"ok": verdict.ok, "checked_semantics": verdict.checked_semantics},
            provenance=self.provenance)
        self.backend.put(record_key(record.fingerprint), record.to_dict())
        function.skill_fingerprint = record.fingerprint  # type: ignore[attr-defined]
        self._bump("stores")
        return record.fingerprint

    # -- demotion --------------------------------------------------------------
    def demote(self, fingerprint: str, reason: str) -> bool:
        """Mark a record as demoted; returns False when already demoted/absent."""
        record = self.retrieval.load(fingerprint)
        if record is None or record.status == STATUS_DEMOTED:
            return False
        record.status = STATUS_DEMOTED
        record.last_error = reason
        self.backend.put(record_key(fingerprint), record.to_dict())
        self._bump("demotions")
        return True

    def record_production_failure(self, function: GeneratedFunction, reason: str) -> bool:
        """Demote the record behind a function the repair loop just evicted."""
        fingerprint = getattr(function, "skill_fingerprint", None)
        if not fingerprint:
            return False
        return self.demote(fingerprint, f"production failure: {reason}")
