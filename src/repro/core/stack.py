"""Per-context wiring of the query pipeline components.

A :class:`QueryStack` bundles everything needed to take one NL query from
text to result: parser, plan generator/verifier, optimizer, execution engine,
and explainer.  The heavyweight shared state (catalog, function registry,
profile cache) is passed in; the stack itself is cheap to build, so every
session gets its own — wired to its own model-suite fork and lineage scope —
while the legacy :class:`~repro.core.kathdb.KathDB` facade builds exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import KathDBConfig
from repro.datamodel.lineage import LineageStore
from repro.executor.engine import ExecutionEngine
from repro.executor.monitor import ExecutionMonitor
from repro.explain.explainer import Explainer
from repro.explain.lineage_query import LineageQueryInterface
from repro.fao.codegen import Coder
from repro.fao.registry import FunctionRegistry
from repro.gateway.gateway import GatewayConfig
from repro.models.base import ModelSuite
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.profile_cache import ProfileCache
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.parser.plan_verifier import PlanVerifier
from repro.relational.catalog import Catalog
from repro.skills.store import SkillStore


@dataclass
class QueryStack:
    """One fully wired parse → plan → optimize → execute → explain pipeline."""

    config: KathDBConfig
    models: ModelSuite
    catalog: Catalog
    lineage: LineageStore
    registry: FunctionRegistry
    coder: Coder
    parser: NLParser
    plan_generator: LogicalPlanGenerator
    plan_verifier: PlanVerifier
    optimizer: QueryOptimizer
    engine: ExecutionEngine
    explainer: Explainer
    lineage_qa: LineageQueryInterface

    @classmethod
    def build(cls, config: KathDBConfig, models: ModelSuite, catalog: Catalog,
              lineage: LineageStore, registry: FunctionRegistry,
              profile_cache: Optional[ProfileCache] = None,
              skill_store: Optional[SkillStore] = None) -> "QueryStack":
        """Wire a pipeline over the given shared state."""
        coder = Coder(models, fault_injection=dict(config.fault_injection))
        parser = NLParser(models,
                          proactive=config.proactive_clarification,
                          reactive=config.reactive_correction,
                          max_correction_rounds=config.max_correction_rounds)
        plan_generator = LogicalPlanGenerator(models, catalog)
        plan_verifier = PlanVerifier(models, catalog)
        # One monitor serves both halves of the pipeline: execution (anomaly
        # escalation) and the optimizer's skill revalidation runs.
        monitor = ExecutionMonitor(models, enabled=config.monitor_enabled)
        optimizer = QueryOptimizer(
            models, catalog, registry, coder=coder,
            enable_fusion=config.enable_fusion,
            explore_variants=config.explore_variants,
            max_variants=config.max_variants,
            variant_overrides=dict(config.variant_overrides),
            max_repair_rounds=config.max_repair_rounds,
            profile_cache=profile_cache,
            # Execution chunks at the gateway's ``max_batch``; setup pricing
            # must count the same number of chunks.
            vectorized_batch_size=GatewayConfig.max_batch,
            skill_store=skill_store,
            monitor=monitor)
        engine = ExecutionEngine(
            models, catalog, lineage, registry, coder=coder,
            monitor=monitor,
            max_repair_rounds=config.max_repair_rounds,
            skill_store=skill_store)
        explainer = Explainer(models, registry=registry)
        lineage_qa = LineageQueryInterface(models, explainer)
        return cls(config=config, models=models, catalog=catalog, lineage=lineage,
                   registry=registry, coder=coder, parser=parser,
                   plan_generator=plan_generator, plan_verifier=plan_verifier,
                   optimizer=optimizer, engine=engine, explainer=explainer,
                   lineage_qa=lineage_qa)
