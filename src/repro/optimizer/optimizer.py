"""The cost-based query optimizer.

For each node of the (possibly rewritten) logical plan the optimizer asks the
coder for candidate implementations, profiles each candidate on sampled
intermediate data, lets the critic check semantics (repairing when needed),
and picks the cheapest acceptable candidate under the unified cost model.
Samples of intermediate results are produced with the chosen implementations
and fed to the downstream candidates, matching the paper's agentic workflow.

Functions can be compiled sequentially (the paper's current prototype) or in
parallel across independent branches (``parallel=True``), which the A6
ablation compares.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.executor.monitor import ExecutionMonitor
from repro.fao.codegen import Coder
from repro.fao.critic import Critic, CriticVerdict
from repro.fao.function import FunctionContext, GeneratedFunction
from repro.fao.profiler import Profiler, ProfileResult
from repro.fao.registry import FunctionRegistry
from repro.models.base import ModelSuite
from repro.obs.trace import attach, current_trace, span as obs_span
from repro.optimizer.cost_model import CostModel
from repro.optimizer.physical_plan import PhysicalOperator, PhysicalPlan
from repro.optimizer.profile_cache import ProfileCache
from repro.optimizer.rewrites import fuse_score_chain, predicate_pushdown
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - skills imports the optimizer package
    from repro.skills.store import SkillHit, SkillStore

#: Accuracy prior below which a candidate implementation is rejected.  The
#: skill store's provenance records it, so persisted records key on it.
MIN_ACCURACY = 0.88


@dataclass
class OptimizationReport:
    """What the optimizer did while compiling one plan."""

    candidates_evaluated: int = 0
    repair_rounds: int = 0
    rewrites_applied: List[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    tokens_spent: int = 0
    chosen_variants: Dict[str, str] = field(default_factory=dict)
    profile_cache_hits: int = 0
    # Skill-store traffic: nodes compiled from a stored skill (exact/near
    # fingerprint match that survived revalidation) versus fresh codegen.
    skill_exact_hits: int = 0
    skill_near_hits: int = 0
    skill_misses: int = 0

    def describe(self) -> str:
        lines = [
            "optimization report",
            f"  rewrites: {', '.join(self.rewrites_applied) or 'none'}",
            f"  candidates evaluated: {self.candidates_evaluated}",
            f"  repair rounds: {self.repair_rounds}",
            f"  optimizer wall clock: {self.wall_clock_s * 1000:.1f} ms",
            f"  optimizer tokens: {self.tokens_spent}",
        ]
        if self.skill_exact_hits or self.skill_near_hits or self.skill_misses:
            lines.append(f"  skill store: {self.skill_exact_hits} exact / "
                         f"{self.skill_near_hits} near hits, {self.skill_misses} misses")
        for name, variant in self.chosen_variants.items():
            lines.append(f"  {name}: {variant}")
        return "\n".join(lines)


class QueryOptimizer:
    """Compiles logical plans into physical plans."""

    def __init__(self, models: ModelSuite, catalog: Catalog, registry: FunctionRegistry,
                 coder: Optional[Coder] = None, profiler: Optional[Profiler] = None,
                 critic: Optional[Critic] = None, enable_pushdown: bool = True,
                 enable_fusion: bool = False, explore_variants: bool = True,
                 max_variants: int = 3, parallel: bool = False,
                 variant_overrides: Optional[Dict[str, str]] = None,
                 sample_size: int = 4, max_repair_rounds: int = 3,
                 min_accuracy: float = MIN_ACCURACY,
                 profile_cache: Optional[ProfileCache] = None,
                 vectorized_batch_size: int = 32,
                 skill_store: Optional["SkillStore"] = None,
                 monitor: Optional[ExecutionMonitor] = None):
        self.models = models
        self.catalog = catalog
        self.registry = registry
        self.coder = coder or Coder(models)
        self.profiler = profiler or Profiler(models, sample_size=sample_size)
        self.critic = critic or Critic(models)
        self.enable_pushdown = enable_pushdown
        self.enable_fusion = enable_fusion
        self.explore_variants = explore_variants
        self.max_variants = max(1, max_variants)
        self.parallel = parallel
        self.variant_overrides = dict(variant_overrides or {})
        self.sample_size = sample_size
        self.max_repair_rounds = max_repair_rounds
        self.min_accuracy = min_accuracy
        self.profile_cache = profile_cache
        # Durable skill store: consulted before generating code for a node,
        # fed after the fresh codegen -> profile -> critic loop accepts one.
        # The monitor (when enabled) additionally watches revalidation runs.
        self.skill_store = skill_store
        self.monitor = monitor
        # Chunk hint carried onto chosen operators: batchable implementations
        # are priced with the sub-linear batch formula and executed
        # chunk-at-a-time.
        self.vectorized_batch_size = max(1, int(vectorized_batch_size))

    # -- public API ---------------------------------------------------------------------
    def optimize(self, logical_plan: LogicalPlan) -> Tuple[PhysicalPlan, OptimizationReport]:
        """Compile one logical plan into a physical plan."""
        report = OptimizationReport()
        marker = self.models.cost_meter.snapshot()
        timer = Timer()
        with timer, obs_span("optimize", kind="stage") as opt_sp:
            plan = logical_plan
            if self.enable_pushdown:
                plan, changed = predicate_pushdown(plan, self.catalog)
                if changed:
                    report.rewrites_applied.append("predicate_pushdown")
            if self.enable_fusion:
                plan, changed = fuse_score_chain(plan)
                if changed:
                    report.rewrites_applied.append("operator_fusion")

            physical = PhysicalPlan(logical_plan=plan,
                                    rewrites_applied=list(report.rewrites_applied))
            cost_model = CostModel(self.catalog)
            sample_tables: Dict[str, Table] = {}

            ordered = plan.execution_order()
            if self.parallel:
                self._compile_parallel(ordered, physical, cost_model, sample_tables, report)
            else:
                for node in ordered:
                    with obs_span(f"compile:{node.name}", kind="stage"):
                        operator = self._compile_node(node, cost_model, sample_tables, report)
                    physical.add(operator)
            opt_sp.tag(nodes=len(ordered),
                       rewrites=list(report.rewrites_applied))

        report.wall_clock_s = timer.elapsed
        report.tokens_spent = self.models.cost_meter.tokens_since(marker)
        report.chosen_variants = {op.name: op.function.variant for op in physical.operators}
        return physical, report

    # -- node compilation ------------------------------------------------------------------
    def _resolve_sample_inputs(self, node: LogicalPlanNode,
                               sample_tables: Dict[str, Table]) -> Dict[str, Table]:
        """Sample input tables for profiling one node."""
        inputs: Dict[str, Table] = {}
        for name in node.inputs:
            if name in sample_tables:
                inputs[name] = sample_tables[name]
            elif self.catalog.has_table(name):
                inputs[name] = self.catalog.table(name)
            else:
                inputs[name] = Table(name, Schema([]))
        return inputs

    def _compile_node(self, node: LogicalPlanNode, cost_model: CostModel,
                      sample_tables: Dict[str, Table],
                      report: OptimizationReport) -> PhysicalOperator:
        inputs = self._resolve_sample_inputs(node, sample_tables)
        context = FunctionContext(models=self.models, catalog=self.catalog)
        input_samples = {name: table.head(2) for name, table in inputs.items()}

        family = node.family
        specs = self.coder.candidate_variants(node)
        override = self.variant_overrides.get(node.name) or self.variant_overrides.get(family)
        if override is not None:
            specs = [s for s in specs if s.variant == override] or specs[:1]
        elif not self.explore_variants:
            specs = specs[:1]
        specs = specs[: self.max_variants]

        # Consult the durable skill store before generating any code.  Nodes
        # with a forced variant or an injected fault must go through fresh
        # codegen (the stored record would bypass what the caller asked for).
        if self.skill_store is not None and override is None \
                and node.name not in self.coder.fault_injection:
            with obs_span("skill_lookup", kind="stage", node=node.name) as sk_sp:
                hit = self.skill_store.lookup(
                    node, inputs, context, models=self.models,
                    profiler=self.profiler, critic=self.critic, monitor=self.monitor,
                    sample_size=self.sample_size)
                sk_sp.tag(hit=hit is not None)
            if hit is not None:
                return self._operator_from_hit(node, hit, cost_model, sample_tables, report)
            report.skill_misses += 1

        candidates: List[Tuple[GeneratedFunction, ProfileResult, float, CriticVerdict]] = []
        for spec in specs:
            with obs_span("codegen", kind="stage", node=node.name,
                          variant=spec.variant):
                function = self.coder.generate(node, variant=spec.variant,
                                               input_samples=input_samples)
            self.registry.register(function)
            cached = self.profile_cache.get(family, spec.variant) \
                if self.profile_cache is not None else None
            if cached is not None:
                # Offline profiling: reuse the cached statistics instead of
                # executing the candidate on sample rows (paper Section 4's
                # research question about reducing online profiling effort).
                rows_in = len(inputs[node.inputs[0]]) if node.inputs and node.inputs[0] in inputs \
                    else self.sample_size
                profile = cached.as_profile(function.name, spec.variant,
                                            min(rows_in, self.sample_size))
                verdict = CriticVerdict(ok=profile.success, checked_semantics=False)
                rounds = 0
                report.profile_cache_hits += 1
            else:
                with obs_span("profile_critic", kind="stage", node=node.name,
                              variant=spec.variant) as pc_sp:
                    function, profile, rounds, verdict = self.critic.review_and_repair(
                        node, function, inputs, context, self.coder, self.profiler,
                        registry=self.registry, max_rounds=self.max_repair_rounds)
                    pc_sp.tag(rounds=rounds, success=profile.success,
                              critic_ok=verdict.ok)
                if self.profile_cache is not None:
                    self.profile_cache.record(family, spec.variant, profile)
            report.candidates_evaluated += 1
            report.repair_rounds += rounds
            estimate = cost_model.estimate(node, function, profile,
                                           batch_size=self.vectorized_batch_size)
            # "Choose the one that produces acceptable outputs at the lowest
            # cost": implementations that fail, are rejected by the critic, or
            # fall below the accuracy floor are only used as a last resort.
            penalty = 0.0
            if not profile.success:
                penalty += 1e9
            if not verdict.ok:
                penalty += 1e6
            if function.accuracy_prior < self.min_accuracy and override is None:
                penalty += 1e6
            candidates.append((function, profile, estimate.tokens + penalty, verdict))

        candidates.sort(key=lambda item: (item[2], -item[0].accuracy_prior))
        chosen, chosen_profile, _, chosen_verdict = candidates[0]
        estimate = cost_model.estimate(node, chosen, chosen_profile,
                                       batch_size=self.vectorized_batch_size)

        # Persist the accepted implementation as a durable skill so later
        # processes (or similar predicates) can retrieve it instead of
        # regenerating.  Overridden variants are a caller's experiment, not a
        # validated default choice, so they are not stored.
        if self.skill_store is not None and override is None:
            self.skill_store.put(node, chosen, chosen_profile, chosen_verdict,
                                 models=self.models, inputs=inputs)

        # Materialize the sample output of the chosen implementation so
        # downstream nodes can be profiled on realistic intermediate data.
        try:
            sample_output = chosen.execute(inputs, context)
        except Exception:  # noqa: BLE001 - sampling must never abort optimization
            sample_output = Table(node.output, Schema([]))
        if len(sample_output) > self.sample_size:
            sample_output = sample_output.head_table(self.sample_size, node.output)
        sample_tables[node.output] = sample_output

        return PhysicalOperator(
            node=node,
            function=chosen,
            estimated_tokens=estimate.tokens,
            estimated_runtime_s=estimate.runtime_s,
            estimated_cardinality=estimate.output_cardinality,
            profile=chosen_profile,
            alternatives_considered=len(candidates),
            batchable=chosen.batchable,
            batch_size=self.vectorized_batch_size if chosen.batchable else 0,
        )

    def _operator_from_hit(self, node: LogicalPlanNode, hit: "SkillHit",
                           cost_model: CostModel, sample_tables: Dict[str, Table],
                           report: OptimizationReport) -> PhysicalOperator:
        """Build a physical operator from a revalidated skill-store hit.

        The revalidation run already executed the function on sampled live
        inputs, so its output doubles as the downstream sample table — a warm
        compile issues no extra execution beyond that one sampled slice.
        """
        function = hit.function
        self.registry.register(function)
        report.candidates_evaluated += 1
        if hit.kind == "exact":
            report.skill_exact_hits += 1
        else:
            report.skill_near_hits += 1

        estimate = cost_model.estimate(node, function, hit.profile,
                                       batch_size=self.vectorized_batch_size)
        sample_output = hit.sample_output
        if sample_output is None:
            sample_output = Table(node.output, Schema([]))
        if len(sample_output) > self.sample_size:
            sample_output = sample_output.head_table(self.sample_size, node.output)
        sample_output.name = node.output
        sample_tables[node.output] = sample_output

        return PhysicalOperator(
            node=node,
            function=function,
            estimated_tokens=estimate.tokens,
            estimated_runtime_s=estimate.runtime_s,
            estimated_cardinality=estimate.output_cardinality,
            profile=hit.profile,
            alternatives_considered=1,
            batchable=function.batchable,
            batch_size=self.vectorized_batch_size if function.batchable else 0,
        )

    # -- parallel compilation -----------------------------------------------------------------
    def _compile_parallel(self, ordered: List[LogicalPlanNode], physical: PhysicalPlan,
                          cost_model: CostModel, sample_tables: Dict[str, Table],
                          report: OptimizationReport) -> None:
        """Compile independent nodes concurrently, level by level."""
        produced = set(self.catalog.table_names())
        remaining = list(ordered)
        compiled: Dict[str, PhysicalOperator] = {}
        # Worker threads do not inherit the query's span contextvar;
        # re-attach the trace so their compile spans still parent here.
        trace = current_trace()

        def compile_attached(node: LogicalPlanNode) -> PhysicalOperator:
            with attach(trace):
                with obs_span(f"compile:{node.name}", kind="stage"):
                    return self._compile_node(node, cost_model, sample_tables,
                                              report)

        while remaining:
            ready = [node for node in remaining
                     if all(source in produced or source in sample_tables
                            for source in node.inputs)]
            if not ready:
                ready = [remaining[0]]  # break potential deadlocks defensively
            with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, len(ready))) as pool:
                futures = {
                    pool.submit(compile_attached, node): node
                    for node in ready
                }
                for future, node in futures.items():
                    compiled[node.name] = future.result()
            for node in ready:
                remaining.remove(node)
                produced.add(node.output)
        for node in ordered:
            physical.add(compiled[node.name])
