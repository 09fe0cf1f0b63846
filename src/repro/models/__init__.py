"""Simulated foundation models.

The paper invokes hosted LLMs/VLMs (GPT-4o) for query parsing, function
generation, and multimodal view population.  This reproduction has no GPU or
API access, so every model is replaced by a deterministic, seeded simulation
that exposes the same *interface* and charges realistic token costs:

* :class:`~repro.models.llm.SimulatedLLM` -- prompt-routed text model used by
  every agent (reviewer, sketch generator, plan writer, verifier, coder,
  profiler, critic, monitor, explainer).
* :class:`~repro.models.vlm.SimulatedVLM` -- image model that extracts scene
  graphs from synthetic posters (with a configurable error rate).
* :class:`~repro.models.embeddings.EmbeddingModel` -- lexicon-grounded text
  embeddings with cosine similarity.
* :class:`~repro.models.ner.EntityExtractor` -- rule-based entity/mention/
  relationship extraction with pronoun coreference.
* :class:`~repro.models.detector.PixelObjectDetector` and
  :class:`~repro.models.ocr.OCRTextExtractor` -- two alternative *physical
  implementations* of image analysis, with different cost/accuracy profiles.
* :class:`~repro.models.cascade.ModelCascade` -- cheap-model-first cascades.
* :class:`~repro.models.cost.CostMeter` -- token and latency accounting shared
  by everything above; this is what the cost-based optimizer reads.

Each model declares its charged methods once, as
:class:`~repro.models.calls.CallSpec` entries in its ``CALLS`` table.

See DESIGN.md ("Substitutions") for why this preserves the paper's behaviour.
"""

from repro.models.cost import BatchedModelCall, CostMeter, ModelCall
from repro.models.batching import BatchMember, BatchPlan, plan_batch
from repro.models.calls import CallSpec
from repro.models.lexicon import Lexicon, DEFAULT_LEXICON
from repro.models.embeddings import EmbeddingModel, cosine_similarity
from repro.models.llm import SimulatedLLM
from repro.models.vlm import SimulatedVLM
from repro.models.ner import EntityExtractor
from repro.models.detector import PixelObjectDetector
from repro.models.ocr import OCRTextExtractor
from repro.models.cascade import ModelCascade, CascadeStage
from repro.models.base import ModelSuite

__all__ = [
    "CostMeter",
    "ModelCall",
    "BatchedModelCall",
    "BatchMember",
    "BatchPlan",
    "plan_batch",
    "CallSpec",
    "Lexicon",
    "DEFAULT_LEXICON",
    "EmbeddingModel",
    "cosine_similarity",
    "SimulatedLLM",
    "SimulatedVLM",
    "EntityExtractor",
    "PixelObjectDetector",
    "OCRTextExtractor",
    "ModelCascade",
    "CascadeStage",
    "ModelSuite",
]
