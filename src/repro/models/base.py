"""The model suite: one object bundling every simulated model.

KathDB's agents need an LLM, a VLM, an embedding model, an entity extractor,
and the cheaper physical alternatives (pixel detector, OCR), all sharing one
cost meter and one lexicon.  :class:`ModelSuite` wires them together so the
rest of the system takes a single dependency.

Each model declares its charged methods once, as a ``CALLS`` table of
:class:`~repro.models.calls.CallSpec`.  A serial call is a plain method
call on the suite's model; a vector of same-method calls goes through one
entry, :meth:`ModelSuite.call_many`, which answers it as batched
invocations with sub-linear token cost (see :mod:`repro.models.batching`)
on either route: through the gateway funnel on a routed suite, directly on
the model's own meter otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.models.batching import run_model_batch
from repro.models.calls import Call, spec_of
from repro.models.cost import CostMeter
from repro.models.detector import PixelObjectDetector
from repro.models.embeddings import EmbeddingModel
from repro.models.lexicon import Lexicon, default_lexicon
from repro.models.llm import SimulatedLLM
from repro.models.ner import EntityExtractor
from repro.models.ocr import OCRTextExtractor
from repro.models.vlm import SimulatedVLM

#: The suite attributes that hold a model (what routing wraps).
MODEL_KINDS = ("llm", "vlm", "embeddings", "ner", "detector", "ocr")


@dataclass
class ModelSuite:
    """All simulated models plus the shared cost meter and lexicon."""

    cost_meter: CostMeter
    lexicon: Lexicon
    llm: SimulatedLLM
    vlm: SimulatedVLM
    embeddings: EmbeddingModel
    ner: EntityExtractor
    detector: PixelObjectDetector
    ocr: OCRTextExtractor
    # Creation parameters, retained so sessions can fork seed-identical suites.
    seed: object = 0
    vlm_error_rate: float = 0.05
    ocr_error_rate: float = 0.02
    # Set on gateway-routed views of a suite (see :meth:`routed`): the
    # session's handle on the shared model gateway, or None for direct suites.
    gateway_client: Optional[object] = None

    @classmethod
    def create(cls, seed: object = 0, vlm_error_rate: float = 0.05,
               ocr_error_rate: float = 0.02, lexicon: Optional[Lexicon] = None,
               cost_meter: Optional[CostMeter] = None) -> "ModelSuite":
        """Build a fully wired model suite.

        Parameters
        ----------
        seed:
            Seed shared (after forking) by every stochastic component.
        vlm_error_rate / ocr_error_rate:
            Noise levels of the perception models; the defaults keep accuracy
            high but imperfect.
        lexicon:
            A custom lexicon; user clarifications may extend it at runtime, so
            every suite gets its own copy by default.
        cost_meter:
            A shared cost meter; a fresh one is created when omitted.
        """
        # CostMeter is sized (a fresh one is falsy), so test for None explicitly.
        meter = cost_meter if cost_meter is not None else CostMeter()
        lex = lexicon or default_lexicon()
        return cls(
            cost_meter=meter,
            lexicon=lex,
            llm=SimulatedLLM(cost_meter=meter, lexicon=lex, seed=seed),
            vlm=SimulatedVLM(cost_meter=meter, lexicon=lex, seed=seed, error_rate=vlm_error_rate),
            embeddings=EmbeddingModel(lexicon=lex, cost_meter=meter),
            ner=EntityExtractor(cost_meter=meter, lexicon=lex),
            detector=PixelObjectDetector(cost_meter=meter),
            ocr=OCRTextExtractor(cost_meter=meter, seed=seed, error_rate=ocr_error_rate),
            seed=seed,
            vlm_error_rate=vlm_error_rate,
            ocr_error_rate=ocr_error_rate,
        )

    def fork(self, cost_meter: Optional[CostMeter] = None,
             lexicon: Optional[Lexicon] = None) -> "ModelSuite":
        """A session-scoped suite: same seeds and noise levels as this one, but
        a fresh cost meter and a private copy of the lexicon.

        Because every simulated model derives its randomness per input (the
        RNGs fork on the item being processed, not on call order), a forked
        suite produces bit-identical outputs to its parent; only the ledgers
        and the mutable lexicon are isolated.
        """
        meter = cost_meter if cost_meter is not None else \
            CostMeter(latency_scale=self.cost_meter.latency_scale,
                      max_sleep_s=self.cost_meter.max_sleep_s)
        return ModelSuite.create(seed=self.seed,
                                 vlm_error_rate=self.vlm_error_rate,
                                 ocr_error_rate=self.ocr_error_rate,
                                 lexicon=lexicon or self.lexicon.copy(),
                                 cost_meter=meter)

    def routed(self, gateway, session_id: str,
               tenant_id: Optional[str] = None) -> "ModelSuite":
        """A view of this suite whose declared calls go through a shared
        gateway (see :meth:`repro.gateway.gateway.ModelGateway.route`), so
        identical requests from concurrent sessions are cached, coalesced,
        and micro-batched service-wide.  ``tenant_id`` keys the gateway
        quota ledger (default: the session id).
        """
        return gateway.route(self, session_id, tenant_id=tenant_id)

    def call_many(self, kind: str, method: str, calls: Sequence[Call],
                  batch_size: Optional[int] = None) -> List[Any]:
        """Answer ``(args, kwargs)`` calls to one declared method of one model.

        Results equal serial calls', in order, and each member shares the
        equal serial call's request key.  The calls go out ``batch_size`` at
        a time (default: all at once); a batch of one is priced exactly as
        the serial call.  A routed suite answers each batch through the
        gateway funnel, which sends a one-call batch down the serial call's
        own route (``spec.batchable``); a direct suite runs it as one batched
        invocation on the model's own meter.  Either way every member of a
        batch executes and is billed before its first member error is raised.
        """
        model = getattr(self, kind)
        client = self.gateway_client
        if client is not None:
            model = model.wrapped
        spec = spec_of(model, method)
        built = [spec.build(model, args, kwargs) for args, kwargs in calls]
        step = batch_size or max(1, len(built))
        results: List[Any] = []
        for start in range(0, len(built), step):
            batch = built[start:start + step]
            results.extend(
                run_model_batch(model, method, batch) if client is None else
                client.invoke_many(model, method, batch,
                                   batchable=spec.batchable,
                                   semantic_terms_of=spec.semantic_terms))
        return results

    def reset_costs(self) -> None:
        """Clear the shared cost meter."""
        self.cost_meter.reset()
