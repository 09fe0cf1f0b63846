"""Gateway-routing proxies for every model kind.

Each proxy exposes the same public surface as the model it wraps (unknown
attributes delegate straight through, so ``lexicon``, ``cost_meter``,
``name`` etc. keep working) but routes the *charged* entry points through the
session's :class:`~repro.gateway.gateway.SessionGatewayClient`.  Sequence
arguments are normalized to tuples before routing so that semantically equal
calls (list vs tuple of the same terms) fingerprint identically — the
underlying models only require ``Sequence``.

The batchable kinds are the ones a real serving stack batches: embeddings,
entity extraction (NER), pixel detection, and OCR — the models that expose a
true ``*_batch()`` entry point with sub-linear token cost.  LLM/VLM calls
are routed for caching and coalescing but execute singly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.gateway.gateway import SessionGatewayClient
from repro.gateway.vectorized import GatewayBatchClient


class GatewayModelProxy:
    """Base proxy: holds the wrapped model and the session's gateway client."""

    #: Marker so routing code can detect an already-routed model.
    __gateway_proxy__ = True

    def __init__(self, model: Any, client: SessionGatewayClient):
        self._model = model
        self._client = client

    @property
    def wrapped(self) -> Any:
        """The underlying (un-routed) model."""
        return self._model

    def __getattr__(self, name: str) -> Any:
        return getattr(self._model, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._model!r})"

    def _invoke(self, method: str, args: Tuple[Any, ...],
                kwargs: Optional[Dict[str, Any]] = None, *,
                batchable: bool = False,
                semantic_terms: Optional[Tuple[Any, Any]] = None) -> Any:
        return self._client.invoke(self._model, method, args, kwargs,
                                   batchable=batchable,
                                   semantic_terms=semantic_terms)

    def _invoke_batch(self, method: str, calls, **opts) -> list:
        """Answer a homogeneous column vector of calls through the gateway.

        Each member is cached/keyed exactly as its serial counterpart (the
        arg shapes must match the serial proxy method), so hits from earlier
        serial traffic answer batch members and vice versa.
        """
        return GatewayBatchClient(self._client).invoke(self._model, method,
                                                       calls, **opts)


def _terms(value: Optional[Sequence[Any]]) -> Tuple[Any, ...]:
    """Normalize a sequence argument into a fingerprint-stable tuple."""
    return tuple(value) if value is not None else ()


class GatewayLLM(GatewayModelProxy):
    """Routes the simulated LLM's charged entry points."""

    def detect_ambiguity(self, nl_query, resolved_terms=None,
                         purpose="ambiguity_detection"):
        return self._invoke("detect_ambiguity", (nl_query,),
                            {"resolved_terms": _terms(resolved_terms) or None,
                             "purpose": purpose})

    def generate_keywords(self, concept_description, context="", count=None,
                          purpose="keyword_generation"):
        return self._invoke("generate_keywords", (concept_description,),
                            {"context": context, "count": count, "purpose": purpose})

    def alternative_interpretations(self, term, purpose="interpretation_enumeration"):
        return self._invoke("alternative_interpretations", (term,),
                            {"purpose": purpose})

    def interpret_query(self, nl_query, clarifications=None, corrections=None,
                        purpose="query_interpretation"):
        return self._invoke("interpret_query", (nl_query,),
                            {"clarifications": dict(clarifications or {}),
                             "corrections": _terms(corrections),
                             "purpose": purpose})

    def classify_dependency_pattern(self, function_description,
                                    purpose="dependency_classification"):
        return self._invoke("classify_dependency_pattern", (function_description,),
                            {"purpose": purpose})

    def judge_output(self, description, input_sample, output_sample,
                     purpose="semantic_judgement"):
        return self._invoke("judge_output",
                            (description, _terms(input_sample), _terms(output_sample)),
                            {"purpose": purpose})

    def render_text(self, template, purpose="text_generation", **fields):
        return self._invoke("render_text", (template,),
                            {"purpose": purpose, **fields})

    def complete(self, prompt, purpose="freeform_completion"):
        return self._invoke("complete", (prompt,), {"purpose": purpose})


class GatewayVLM(GatewayModelProxy):
    """Routes the simulated VLM's charged entry points."""

    def extract_scene_graph(self, image, purpose="scene_graph_extraction"):
        return self._invoke("extract_scene_graph", (image,), {"purpose": purpose})

    def caption(self, image, purpose="caption"):
        return self._invoke("caption", (image,), {"purpose": purpose})

    def answer_visual_question(self, image, question, purpose="visual_qa"):
        return self._invoke("answer_visual_question", (image, question),
                            {"purpose": purpose})

    def extract_scene_graph_batch(self, images, purpose="scene_graph_extraction"):
        return self._invoke_batch(
            "extract_scene_graph",
            [((image,), {"purpose": purpose}) for image in images])

    def answer_visual_question_batch(self, images, question,
                                     purpose="visual_qa"):
        return self._invoke_batch(
            "answer_visual_question",
            [((image, question), {"purpose": purpose}) for image in images])


class GatewayEmbeddings(GatewayModelProxy):
    """Routes the embedding model (batchable; predicates are semantic-eligible)."""

    def embed_word(self, word, purpose="embed_word"):
        return self._invoke("embed_word", (word,), {"purpose": purpose},
                            batchable=True)

    def embed_text(self, text, purpose="embed_text"):
        return self._invoke("embed_text", (text,), {"purpose": purpose},
                            batchable=True)

    def embed_many(self, texts, purpose="embed_batch"):
        return self._invoke("embed_many", (_terms(texts),), {"purpose": purpose},
                            batchable=True)

    def similarity(self, text_a, text_b, purpose="similarity"):
        return self._invoke("similarity", (text_a, text_b), {"purpose": purpose},
                            batchable=True)

    def max_similarity(self, query_terms, candidate_terms, purpose="max_similarity"):
        query, candidates = _terms(query_terms), _terms(candidate_terms)
        return self._invoke("max_similarity", (query, candidates),
                            {"purpose": purpose}, batchable=True,
                            semantic_terms=(query, candidates))

    def aggregate_similarity(self, query_terms, candidate_terms,
                             purpose="aggregate_similarity"):
        query, candidates = _terms(query_terms), _terms(candidate_terms)
        return self._invoke("aggregate_similarity", (query, candidates),
                            {"purpose": purpose}, batchable=True,
                            semantic_terms=(query, candidates))

    def match_fraction(self, query_terms, candidate_terms, threshold=0.5,
                       purpose="match_fraction"):
        query, candidates = _terms(query_terms), _terms(candidate_terms)
        return self._invoke("match_fraction", (query, candidates),
                            {"threshold": threshold, "purpose": purpose},
                            batchable=True, semantic_terms=(query, candidates))

    def match_fraction_batch(self, query_terms, candidate_lists, threshold=0.5,
                             purpose="match_fraction"):
        query = _terms(query_terms)
        return self._invoke_batch(
            "match_fraction",
            [((query, _terms(candidates)),
              {"threshold": threshold, "purpose": purpose})
             for candidates in candidate_lists],
            # Members are near-match eligible: when the semantic tier is on,
            # each exact-cache miss is offered to it under its (query,
            # candidates) signature before the rest execute as a batch.
            semantic_terms_of=lambda args, kwargs: (args[0], args[1]))

    def embed_text_batch(self, texts, purpose="embed_text"):
        return self._invoke_batch(
            "embed_text", [((text,), {"purpose": purpose}) for text in texts])

    def nearest(self, query, candidates, top_k=5, purpose="nearest"):
        return self._invoke("nearest", (query, _terms(candidates)),
                            {"top_k": top_k, "purpose": purpose}, batchable=True)


class GatewayNER(GatewayModelProxy):
    """Routes the entity extractor (batchable)."""

    def extract(self, text, purpose="text_graph_extraction"):
        return self._invoke("extract", (text,), {"purpose": purpose},
                            batchable=True)

    def extract_batch(self, texts, purpose="text_graph_extraction"):
        return self._invoke_batch(
            "extract", [((text,), {"purpose": purpose}) for text in texts])


class GatewayDetector(GatewayModelProxy):
    """Routes the pixel detector (batchable)."""

    def detect(self, image, purpose="pixel_detection"):
        return self._invoke("detect", (image,), {"purpose": purpose},
                            batchable=True)

    def detect_batch(self, images, purpose="pixel_detection"):
        return self._invoke_batch(
            "detect", [((image,), {"purpose": purpose}) for image in images])


class GatewayOCR(GatewayModelProxy):
    """Routes the OCR extractor (batchable)."""

    def extract_text(self, image, purpose="ocr"):
        return self._invoke("extract_text", (image,), {"purpose": purpose},
                            batchable=True)

    def extract_text_batch(self, images, purpose="ocr"):
        return self._invoke_batch(
            "extract_text",
            [((image,), {"purpose": purpose}) for image in images])


def is_routed(suite) -> bool:
    """Whether a model suite already routes through a gateway."""
    return getattr(suite, "gateway_client", None) is not None or \
        getattr(suite.llm, "__gateway_proxy__", False)


def route_suite(suite, client: SessionGatewayClient):
    """A copy of ``suite`` whose models call through the gateway.

    The copy shares the original's cost meter and lexicon (so per-session
    accounting and clarifications behave exactly as before); only the model
    objects are wrapped.  Routing an already-routed suite returns it as is.
    """
    if is_routed(suite):
        return suite
    return dataclasses.replace(
        suite,
        llm=GatewayLLM(suite.llm, client),
        vlm=GatewayVLM(suite.vlm, client),
        embeddings=GatewayEmbeddings(suite.embeddings, client),
        ner=GatewayNER(suite.ner, client),
        detector=GatewayDetector(suite.detector, client),
        ocr=GatewayOCR(suite.ocr, client),
        gateway_client=client,
    )
