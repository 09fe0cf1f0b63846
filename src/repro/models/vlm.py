"""A simulated vision-language model.

The VLM is the reproduction's stand-in for GPT-4o-style image understanding:
given a poster it returns a scene graph (objects, relationships, attributes),
a caption, and answers to simple visual questions.  Internally it reads the
synthetic image's ground truth and corrupts it with a configurable error rate
(missed objects, confused classes), so downstream accuracy is high but not
perfect -- the regime in which the paper's critic/monitor loops matter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.data.images import (
    BORING_OBJECT_CLASSES,
    SyntheticImage,
    VIVID_OBJECT_CLASSES,
)
from repro.models.calls import CallSpec, declare
from repro.models.cost import CostMeter
from repro.models.lexicon import DEFAULT_LEXICON, Lexicon
from repro.utils.seed import SeededRNG
from repro.utils.text import estimate_tokens, join_names

# A fixed token charge per image, standing in for the vision encoder cost.
IMAGE_PROMPT_TOKENS = 420


class SimulatedVLM:
    """Scene-graph extraction and visual question answering over synthetic posters."""

    #: Prompt/setup tokens one serial request embeds — the vision system
    #: prompt, the extraction schema, and the shared few-shot example images
    #: that a batched invocation sends once for the whole batch.  Most of the
    #: per-request framing is shareable; only the poster's own encoded pixels
    #: (and the completion) stay marginal.  See :mod:`repro.models.batching`.
    BATCH_OVERHEAD_TOKENS = 384

    #: The charged entry points (see :mod:`repro.models.calls`).  A serial
    #: VLM call executes singly; a vector of them through
    #: :meth:`~repro.models.base.ModelSuite.call_many` is one batched
    #: invocation.
    CALLS = declare(
        CallSpec("extract_scene_graph", "scene_graph_extraction"),
        CallSpec("caption", "caption"),
        CallSpec("answer_visual_question", "visual_qa"),
    )

    def __init__(self, cost_meter: Optional[CostMeter] = None, error_rate: float = 0.05,
                 seed: object = 0, lexicon: Optional[Lexicon] = None,
                 name: str = "vlm:sim-scene-graph"):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self.cost_meter = cost_meter
        self.error_rate = error_rate
        self.lexicon = lexicon or DEFAULT_LEXICON
        self.name = name
        self._rng = SeededRNG(("vlm", seed))

    # -- internals ---------------------------------------------------------------
    def _charge(self, purpose: str, completion_text: str) -> None:
        if self.cost_meter is not None:
            self.cost_meter.record(
                self.name, purpose,
                prompt_tokens=IMAGE_PROMPT_TOKENS,
                completion_tokens=estimate_tokens(completion_text),
            )

    def _confuse_class(self, class_name: str, rng: SeededRNG) -> str:
        pool = VIVID_OBJECT_CLASSES if class_name in VIVID_OBJECT_CLASSES else BORING_OBJECT_CLASSES
        candidates = [c for c in pool if c != class_name]
        return rng.choice(candidates) if candidates else class_name

    # -- public API ----------------------------------------------------------------
    def extract_scene_graph(self, image: SyntheticImage,
                            purpose: str = "scene_graph_extraction") -> Dict[str, Any]:
        """Extract a scene graph from one poster.

        Returns a dict with ``objects`` (class_name, bbox, attributes),
        ``relationships`` (subject index, predicate, object index), and the
        poster-level pixel statistics the classify functions use.
        """
        rng = self._rng.fork(image.uri)
        objects: List[Dict[str, Any]] = []
        kept_indices: List[int] = []
        for index, obj in enumerate(image.objects):
            if rng.chance(self.error_rate):
                continue  # missed detection
            class_name = obj.class_name
            if rng.chance(self.error_rate):
                class_name = self._confuse_class(class_name, rng)
            kept_indices.append(index)
            objects.append({
                "class_name": class_name,
                "bbox": list(obj.bbox),
                "attributes": dict(obj.attributes),
            })
        index_map = {original: new for new, original in enumerate(kept_indices)}
        relationships: List[Tuple[int, str, int]] = []
        for subject, predicate, target in image.relationships:
            if subject in index_map and target in index_map:
                relationships.append((index_map[subject], predicate, index_map[target]))
        result = {
            "objects": objects,
            "relationships": relationships,
            "color_variance": image.color_variance(),
            "saturation": image.saturation(),
            "coverage": image.coverage(),
            "text_overlay": image.text_overlay,
        }
        self._charge(purpose, repr(result))
        return result

    def caption(self, image: SyntheticImage, purpose: str = "caption") -> str:
        """A one-sentence caption of the poster."""
        graph = self.extract_scene_graph(image, purpose=purpose)
        classes = [o["class_name"] for o in graph["objects"]]
        if not classes:
            text = "A plain poster with no prominent objects."
        else:
            text = f"A poster showing {join_names(sorted(set(classes)))}."
        self._charge(purpose, text)
        return text

    def answer_visual_question(self, image: SyntheticImage, question: str,
                               purpose: str = "visual_qa") -> Dict[str, Any]:
        """Answer a yes/no style visual question about the poster.

        The only question family the reproduction needs is "does this poster
        look boring / vivid / exciting"; anything else falls back to object
        presence checks.
        """
        graph = self.extract_scene_graph(image, purpose=purpose)
        lowered = question.lower()
        vivid_evidence = self.lexicon.matching_terms(
            " ".join(o["class_name"] for o in graph["objects"]), "vivid_visual")
        boring_score = 1.0
        boring_score -= min(0.4, 0.1 * len(graph["objects"]))
        boring_score -= min(0.3, 0.15 * len(vivid_evidence))
        boring_score -= min(0.3, graph["saturation"])
        boring_score = max(0.0, min(1.0, boring_score))
        if "boring" in lowered or "plain" in lowered or "dull" in lowered:
            answer = boring_score >= 0.5
            confidence = abs(boring_score - 0.5) * 2
        elif "vivid" in lowered or "exciting" in lowered or "action" in lowered:
            answer = boring_score < 0.5
            confidence = abs(boring_score - 0.5) * 2
        else:
            # object-presence fallback: "does the poster contain a gun?"
            classes = {o["class_name"] for o in graph["objects"]}
            answer = any(c in lowered for c in classes)
            confidence = 0.6
        result = {"answer": bool(answer), "confidence": float(confidence),
                  "boring_score": boring_score, "evidence": vivid_evidence}
        self._charge(purpose, repr(result))
        return result
