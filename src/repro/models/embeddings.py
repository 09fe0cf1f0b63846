"""Deterministic, lexicon-grounded text embeddings.

The physical implementation of several FAO operators is "embed the extracted
objects, embed the concepts from the generated keyword list, compute their
similarity" (paper Section 1).  This module provides an embedding model whose
vectors are:

* **semantic** -- one dimension block per lexicon concept, so terms sharing a
  concept have high cosine similarity; and
* **deterministic** -- a hashed residual sub-vector makes unrelated terms
  near-orthogonal without any randomness across runs.

The model charges embedding tokens to the shared :class:`CostMeter`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.models.calls import CallSpec, declare, query_and_candidates, terms
from repro.models.cost import CostMeter
from repro.models.lexicon import DEFAULT_LEXICON, Lexicon
from repro.utils.seed import stable_hash
from repro.utils.text import content_words, estimate_tokens, normalize


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity of two vectors (0.0 when either is all-zero)."""
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    norm = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if norm == 0.0:
        return 0.0
    return float(np.dot(va, vb) / norm)


class EmbeddingModel:
    """Embeds words and texts into a fixed-dimension vector space."""

    #: Prompt/setup tokens one serial request embeds (the request framing a
    #: batched invocation pays once); see :mod:`repro.models.batching`.
    BATCH_OVERHEAD_TOKENS = 8

    #: The charged entry points (see :mod:`repro.models.calls`).  The three
    #: term-set predicates are eligible for the gateway's semantic
    #: near-match tier.
    CALLS = declare(
        CallSpec("embed_word", "embed_word"),
        CallSpec("embed_text", "embed_text"),
        CallSpec("embed_many", "embed_batch", normalize={"texts": terms}),
        CallSpec("similarity", "similarity"),
        *(CallSpec(method, method,
                   normalize={"query_terms": terms, "candidate_terms": terms},
                   semantic_terms=query_and_candidates)
          for method in ("max_similarity", "aggregate_similarity", "match_fraction")),
        CallSpec("nearest", "nearest", normalize={"candidates": terms}),
    )

    def __init__(self, lexicon: Optional[Lexicon] = None, dimensions: int = 64,
                 concept_weight: float = 3.0, cost_meter: Optional[CostMeter] = None,
                 name: str = "embedding:lexicon-64"):
        if dimensions < 8:
            raise ValueError("dimensions must be at least 8")
        self.lexicon = lexicon or DEFAULT_LEXICON
        self.dimensions = dimensions
        self.concept_weight = concept_weight
        self.cost_meter = cost_meter
        self.name = name
        self._concept_axes: Dict[str, int] = {
            concept: index for index, concept in enumerate(self.lexicon.concept_names())
        }
        self._residual_dims = max(4, dimensions - len(self._concept_axes))
        self._cache: Dict[str, np.ndarray] = {}

    @property
    def vector_width(self) -> int:
        """The dimensionality of every vector this model emits.

        The concept block plus the hashed residual block — callers that
        pre-size vector structures (the gateway's LSH index builds its
        hyperplane matrix eagerly from this) read it instead of probing
        with a throwaway embedding.
        """
        return len(self._concept_axes) + self._residual_dims

    # -- internals --------------------------------------------------------------
    def _charge(self, text: str, purpose: str) -> None:
        if self.cost_meter is not None:
            tokens = estimate_tokens(text)
            self.cost_meter.record(self.name, purpose, prompt_tokens=tokens, completion_tokens=0)

    def _word_vector(self, word: str) -> np.ndarray:
        key = normalize(word)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        concept_part = np.zeros(len(self._concept_axes), dtype=float)
        for concept in self.lexicon.concepts_of_term(key):
            # Concepts added to the lexicon after the model was built (e.g. a
            # clarified subjective term) have no axis of their own; their terms
            # still resolve through the original concepts they belong to.
            axis = self._concept_axes.get(concept)
            if axis is not None:
                concept_part[axis] = self.concept_weight
        residual = np.zeros(self._residual_dims, dtype=float)
        seed = stable_hash("embedding", key)
        # Three pseudo-random residual components keep unrelated words apart.
        for i in range(3):
            index = (seed >> (i * 8)) % self._residual_dims
            sign = 1.0 if ((seed >> (i * 8 + 7)) & 1) else -1.0
            residual[index] += sign
        vector = np.concatenate([concept_part, residual])
        self._cache[key] = vector
        return vector

    # -- public API ----------------------------------------------------------------
    def embed_word(self, word: str, purpose: str = "embed_word") -> np.ndarray:
        """Embedding of a single word."""
        self._charge(word, purpose)
        return self._word_vector(word)

    def embed_text(self, text: str, purpose: str = "embed_text") -> np.ndarray:
        """Embedding of a text: mean of content-word embeddings."""
        self._charge(text, purpose)
        words = content_words(text)
        if not words:
            return np.zeros(len(self._concept_axes) + self._residual_dims, dtype=float)
        vectors = [self._word_vector(w) for w in words]
        return np.mean(vectors, axis=0)

    def embed_many(self, texts: Iterable[str], purpose: str = "embed_batch") -> List[np.ndarray]:
        """Embed a batch of texts (serial accounting, one charge per text)."""
        return [self.embed_text(t, purpose=purpose) for t in texts]

    def similarity(self, text_a: str, text_b: str, purpose: str = "similarity") -> float:
        """Cosine similarity between two texts."""
        return cosine_similarity(self.embed_text(text_a, purpose=purpose),
                                 self.embed_text(text_b, purpose=purpose))

    def max_similarity(self, query_terms: Sequence[str], candidate_terms: Sequence[str],
                       purpose: str = "max_similarity") -> float:
        """Best pairwise similarity between two term sets (keyword matching).

        This is the primitive used by generated excitement-scoring functions:
        LLM-generated keywords on one side, extracted entities/objects on the
        other.
        """
        best = 0.0
        for query in query_terms:
            query_vec = self.embed_word(query, purpose=purpose)
            for candidate in candidate_terms:
                score = cosine_similarity(query_vec, self.embed_word(candidate, purpose=purpose))
                best = max(best, score)
        return best

    def aggregate_similarity(self, query_terms: Sequence[str], candidate_terms: Sequence[str],
                             purpose: str = "aggregate_similarity") -> float:
        """A smooth [0, 1] score of how strongly candidates match the query terms.

        Computes, for each candidate, its best similarity to any query term,
        then combines them with a saturating (noisy-or style) aggregation so
        that more matching candidates monotonically increase the score -- the
        behaviour the paper's ``gen_excitement_score`` needs (more dangerous
        scenes, higher excitement).
        """
        if not query_terms or not candidate_terms:
            return 0.0
        query_vectors = [self.embed_word(q, purpose=purpose) for q in query_terms]
        score = 1.0
        for candidate in candidate_terms:
            candidate_vector = self.embed_word(candidate, purpose=purpose)
            best = max(cosine_similarity(candidate_vector, qv) for qv in query_vectors)
            best = max(0.0, min(1.0, best))
            score *= (1.0 - 0.9 * best)
        return 1.0 - score

    def match_fraction(self, query_terms: Sequence[str], candidate_terms: Sequence[str],
                       threshold: float = 0.5, purpose: str = "match_fraction") -> float:
        """Fraction of candidates that match any query term above ``threshold``.

        Unlike :meth:`aggregate_similarity` this does not saturate: it measures
        the *density* of matching content, so a plot with one violent sentence
        among many calm ones scores much lower than a plot that is violent
        throughout.  The default excitement-scoring FAO implementation uses it.
        """
        if not query_terms or not candidate_terms:
            return 0.0
        query_vectors = [self.embed_word(q, purpose=purpose) for q in query_terms]
        matches = 0
        for candidate in candidate_terms:
            candidate_vector = self.embed_word(candidate, purpose=purpose)
            best = max(cosine_similarity(candidate_vector, qv) for qv in query_vectors)
            if best >= threshold:
                matches += 1
        return matches / len(candidate_terms)

    def nearest(self, query: str, candidates: Sequence[str], top_k: int = 5,
                purpose: str = "nearest") -> List[tuple]:
        """The ``top_k`` candidates most similar to ``query`` as (term, score)."""
        query_vector = self.embed_text(query, purpose=purpose)
        scored = []
        for candidate in candidates:
            score = cosine_similarity(query_vector, self.embed_text(candidate, purpose=purpose))
            scored.append((candidate, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:top_k]
