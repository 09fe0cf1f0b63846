"""The coder agent: turns logical-plan nodes into executable functions.

Given a node's signature, its parameters, and sample rows from its input
relations, the coder selects an implementation template from the library,
parameterizes it, and emits a :class:`GeneratedFunction`.  It can:

* produce *alternative implementations* of the same signature (the optimizer
  asks for several variants and picks by cost/accuracy);
* apply a *repair hint* from the critic or the execution monitor and emit a
  patched implementation (which the registry stamps with a new version);
* *inject faults* on request -- a reversed recency score (the paper's semantic
  anomaly example) or a fragile implementation that chokes on an unsupported
  image format (the paper's syntactic fault example) -- so tests, examples,
  and benchmarks can exercise the repair loops deterministically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.datamodel.lineage import DependencyPattern
from repro.errors import FunctionGenerationError
from repro.fao.function import GeneratedFunction
from repro.fao.library import ImplementationLibrary, ImplementationSpec
from repro.fao.signature import FunctionSignature
from repro.models.base import ModelSuite
from repro.parser.logical_plan import LogicalPlanNode

# Fault kinds understood by ``fault_injection``.
FAULT_SEMANTIC_REVERSED = "semantic_reversed"
FAULT_SYNTACTIC_FRAGILE = "syntactic_fragile"


class Coder:
    """Generates function bodies for logical-plan nodes."""

    def __init__(self, models: ModelSuite, library: Optional[ImplementationLibrary] = None,
                 fault_injection: Optional[Dict[str, str]] = None):
        self.models = models
        self.library = library or ImplementationLibrary()
        self.fault_injection = dict(fault_injection or {})

    # -- public API -----------------------------------------------------------------
    def candidate_variants(self, node: LogicalPlanNode) -> List[ImplementationSpec]:
        """The implementation variants available for a node's family."""
        return self.library.candidates(node.family, node.name)

    def generate(self, node: LogicalPlanNode, variant: Optional[str] = None,
                 hint: Optional[str] = None,
                 input_samples: Optional[Dict[str, List[dict]]] = None) -> GeneratedFunction:
        """Generate one implementation of a node.

        Parameters
        ----------
        node:
            The logical-plan node (signature + parameters).
        variant:
            Specific template variant to use; the most accurate variant is used
            when omitted.
        hint:
            A corrective hint from the critic or the execution monitor.  The
            coder folds the hint into the implementation: it removes injected
            faults the hint describes and documents the patch in the source.
        input_samples:
            Sample rows of the input relations (catalog context for the coder,
            charged as prompt tokens).
        """
        specs = self.candidate_variants(node)
        spec = specs[0]
        if variant is not None:
            matching = [s for s in specs if s.variant == variant]
            if not matching:
                raise FunctionGenerationError(
                    f"no variant {variant!r} for node {node.name!r} "
                    f"(available: {[s.variant for s in specs]})")
            spec = matching[0]

        parameters = dict(node.parameters)
        fault = self.fault_injection.get(node.name)
        patched_notes: List[str] = []

        if fault == FAULT_SEMANTIC_REVERSED and spec.family == "recency_score":
            parameters["_inject_reversed"] = True
        if fault == FAULT_SYNTACTIC_FRAGILE and spec.family == "classify_image":
            parameters["_inject_fragile"] = True

        if hint:
            lowered = hint.lower()
            if "revers" in lowered or "decreas" in lowered:
                parameters.pop("_inject_reversed", None)
                self.fault_injection.pop(node.name, None)
                patched_notes.append(f"patched: {hint}")
            if "format" in lowered or "unsupported" in lowered or "convert" in lowered:
                parameters.pop("_inject_fragile", None)
                self.fault_injection.pop(node.name, None)
                patched_notes.append(f"patched: added format conversion ({hint})")
            if not patched_notes:
                patched_notes.append(f"patched: {hint}")

        build_node = dataclasses.replace(node, parameters=parameters)
        body, source_text = spec.build(build_node)
        if patched_notes:
            source_text += "".join(f"# {note}\n" for note in patched_notes)

        dependency = DependencyPattern.from_string(node.dependency_pattern)
        function = GeneratedFunction(
            signature=FunctionSignature.from_node(node),
            body=body,
            source_text=source_text,
            implementation_kind=spec.implementation_kind,
            variant=spec.variant,
            dependency_pattern=dependency,
            parameters=parameters,
            accuracy_prior=spec.accuracy_prior,
            cost_per_row_tokens=spec.cost_per_row_tokens,
            batchable=spec.batchable,
            batch_setup_tokens=spec.batch_setup_tokens,
        )

        # Charge code-generation tokens: the prompt is the node spec plus the
        # sampled rows; the completion is the emitted source.
        prompt = node.description + repr(node.parameters) + repr(input_samples or {})
        self.models.llm.render_text(
            "generated {name} ({variant})", purpose="code_generation",
            name=node.name, variant=spec.variant)
        self.models.cost_meter.record(
            self.models.llm.name, "code_generation_body",
            prompt_tokens=max(1, len(prompt) // 4),
            completion_tokens=max(1, len(source_text) // 4))
        return function

    def repair(self, node: LogicalPlanNode, failed: GeneratedFunction, hint: str,
               input_samples: Optional[Dict[str, List[dict]]] = None) -> GeneratedFunction:
        """Generate a patched implementation after a failure.

        The rewriter keeps the same variant as the failed implementation so the
        patch is minimal, mirroring the paper's reviewer/rewriter loop.
        """
        return self.generate(node, variant=failed.variant, hint=hint,
                             input_samples=input_samples)
