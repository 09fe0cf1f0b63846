"""The semantic near-match tier for embeddings-backed predicates.

Exact caching only helps when two requests are byte-identical.  The
embeddings-backed predicate methods (``match_fraction``,
``aggregate_similarity``, ``max_similarity``) are *smooth* in their term
sets, so a request whose terms are nearly the same as an already-answered
one ("gun, murder, chase" vs "guns, murder, chase") produces a nearly
identical score.  This tier keys answered predicate requests by an
embedding of their term signature and serves a stored answer when a new
request's signature is within ``threshold`` cosine similarity.

Two lookup modes share the same entry points:

* ``"linear"`` — the original exhaustive cosine scan over every stored
  signature vector in the request's group.  Exact nearest-neighbour, cost
  linear in the group size.
* ``"ann"`` (the default) — a multi-probe random-hyperplane LSH index
  (:mod:`repro.gateway.ann`) narrows the scan to the entries sharing (or
  neighbouring) the query's hash bucket.  Lookup cost is independent of
  the total entry count; the candidates still go through the *same* exact
  cosine check, so ANN can only shrink the candidate set a linear scan
  would have considered — it can serve a fallback where linear would have
  found a borderline match (recall), but never accept anything linear
  would have rejected (no new false accepts by construction).

Correctness guard: the tier is *approximate by contract* when enabled — a
lookup below the threshold always falls back to exact execution, an entry
whose canonical signature is string-identical to the request's is
authoritative (same sorted term multisets compute the same answer), and
anything between is a deliberate near-match whose measured accuracy is
what ``tests/test_semantic_ann.py`` audits: the service's threshold,
``repro.core.config.SEMANTIC_SIMILARITY_THRESHOLD``, produces zero false
accepts against exact execution on a scoring-shaped request stream.
Entries are grouped per (model, method, lexicon fingerprint, non-purpose
kwargs) — diverged lexicons, or the same terms under a different
``threshold=`` argument, never share.

Invalidation keeps the LSH index and the entry store in lockstep: every
eviction, ``clear()`` (the corpus-reload path included), and capacity
sweep drops the index entry alongside the cached answer, under one lock.

**Per-signature memo.**  A search's answer depends only on its group's
contents and its signature, so ``search`` remembers, per group, which entry
it served each signature and answers a repeat from that memo before any
embedding or cosine scan.  Three rules keep it exact: ``put`` drops the memo
of the group it writes to, each capacity eviction drops the memo of the
group it evicts from, and ``clear()`` drops every memo.  The memo holds at
most ``capacity`` signatures and is reset when full.  It lives inside the
tier, so a disabled tier serves nothing and an evicted entry is never
served.  It assumes ``threshold`` and ``mode`` stay as constructed.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gateway.ann import LSHIndex
from repro.models.embeddings import EmbeddingModel, cosine_similarity

#: Recognised lookup modes (the config layer adds "off" on top).
SEMANTIC_MODES = ("linear", "ann")


@dataclass
class SemanticEntry:
    """One answered predicate request: signature (text + vector) + answer."""

    vector: np.ndarray
    signature: str
    result: Any
    token_cost: int = 0
    hits: int = 0


@dataclass
class SemanticStats:
    """Counters for the semantic tier."""

    near_hits: int = 0
    fallbacks: int = 0       # lookups below threshold (exact execution ran)
    tokens_saved: int = 0
    entries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"near_hits": self.near_hits, "fallbacks": self.fallbacks,
                "tokens_saved": self.tokens_saved, "entries": self.entries}


class SemanticLookup(NamedTuple):
    """One search's outcome.

    ``entry`` is the served answer (None: execute exactly), ``probes`` the
    buckets scanned (0 on a memo hit), and ``vector`` the request's
    signature embedding — always set when ``entry`` is None, so the caller
    can ``put`` the exact answer without embedding twice.
    """

    entry: Optional[SemanticEntry]
    probes: int
    vector: Optional[np.ndarray]


def term_signature(query_terms: Sequence[Any], candidate_terms: Sequence[Any]) -> str:
    """The order-insensitive canonical signature of one predicate request.

    Structural (``repr`` of the sorted term tuples) rather than
    space-joined, so distinct term sets — ``["a b"]`` vs ``["a", "b"]``, or
    terms containing a separator — never canonicalize to the same string;
    string equality of signatures therefore implies an identical request.
    """
    left = tuple(sorted(str(t) for t in query_terms))
    right = tuple(sorted(str(t) for t in candidate_terms))
    return repr((left, right))


class SemanticNearCache:
    """Cosine-keyed reuse of embeddings-backed predicate answers."""

    def __init__(self, threshold: float = 0.97, capacity: int = 512,
                 embedder: Optional[EmbeddingModel] = None,
                 mode: str = "ann", planes: int = 16, probes: int = 8,
                 store: Optional[Any] = None):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("semantic threshold must be in (0, 1]")
        if mode not in SEMANTIC_MODES:
            raise ValueError(f"semantic mode must be one of {SEMANTIC_MODES}, "
                             f"got {mode!r}")
        self.threshold = threshold
        self.mode = mode
        #: Global bound on stored entries across *all* groups (the number of
        #: groups is open-ended — every diverged lexicon fingerprint mints
        #: new ones — so a per-group cap alone would not bound memory).
        self.capacity = max(1, capacity)
        # A private, meter-less embedder: signature lookups are index
        # maintenance, not model traffic, and must not charge anyone.
        self._embedder = embedder or EmbeddingModel(cost_meter=None)
        # Groups in LRU order (most recently stored-into last); entries
        # within a group in insertion order.  Kept in *both* modes: it is
        # the eviction order and the linear-scan store.
        self._groups: "OrderedDict[Tuple, List[SemanticEntry]]" = OrderedDict()
        # The ANN index is maintained even in linear mode (its occupancy is
        # reported either way) — its upkeep is one O(planes·dims) hash per
        # insert/evict.
        self.index = LSHIndex(planes=planes, probes=probes,
                              dimensions=self._embedder.vector_width)
        self._lock = threading.Lock()
        self.stats = SemanticStats()
        # group -> signature -> the stored entry search served it (module
        # docstring: the memo and its three invalidation rules).
        self._memo: Dict[Tuple, Dict[str, SemanticEntry]] = {}
        self._memo_size = 0
        # Optional persistence (repro.gateway.persist.GatewayCacheStore):
        # stored answers write through as (group, signature, result, cost);
        # vectors are re-embedded on restore() — embed_signature is
        # deterministic, so the rebuilt LSH index is exact.
        self.store = store

    def embed_signature(self, signature: str) -> np.ndarray:
        return self._embedder.embed_text(signature, purpose="gateway_signature")

    # -- lookup -------------------------------------------------------------------
    def search(self, group: Tuple, signature: str,
               vector: Optional[np.ndarray] = None) -> SemanticLookup:
        """Look one request up; see :class:`SemanticLookup`.

        A signature-identical entry wins outright (it is the same request,
        canonically); otherwise the cosine-nearest candidate is served when
        it clears the threshold.  A None entry (counted as a fallback)
        means no stored request qualified — the caller must then execute
        exactly.  The probe count is the ANN bucket scans issued (a linear
        scan reports one "probe" covering the whole group).

        Without ``vector`` the search embeds ``signature`` itself and may
        answer from, and record into, the per-signature memo.  A caller
        passing its own ``vector`` bypasses the memo: the memo is only exact
        for the signature's own embedding.
        """
        memoized = vector is None
        if vector is None:
            with self._lock:
                entry = self._memo.get(group, {}).get(signature)
                if entry is not None:
                    return SemanticLookup(self._serve(entry), 0, None)
            vector = self.embed_signature(signature)
        with self._lock:
            probes_before = self.index.stats.probes
            if self.mode == "ann":
                candidates = self.index.candidates(group, vector)
                probes = self.index.stats.probes - probes_before
            else:
                candidates = self._groups.get(group, ())
                probes = 1
            best: Optional[SemanticEntry] = None
            best_score = 0.0
            for entry in candidates:
                if entry.signature == signature:
                    best, best_score = entry, 1.0
                    break
                score = cosine_similarity(vector, entry.vector)
                if score > best_score:
                    best, best_score = entry, score
            if best is None or best_score < self.threshold:
                self.stats.fallbacks += 1
                return SemanticLookup(None, probes, vector)
            if memoized:
                if self._memo_size >= self.capacity:
                    self._memo.clear()
                    self._memo_size = 0
                memo = self._memo.setdefault(group, {})
                self._memo_size += signature not in memo
                memo[signature] = best
            return SemanticLookup(self._serve(best), probes, vector)

    def _serve(self, entry: SemanticEntry) -> SemanticEntry:
        """Count one near-hit on ``entry`` and hand out a private copy."""
        entry.hits += 1
        self.stats.near_hits += 1
        self.stats.tokens_saved += entry.token_cost
        return SemanticEntry(vector=entry.vector, signature=entry.signature,
                             result=copy.deepcopy(entry.result),
                             token_cost=entry.token_cost, hits=entry.hits)

    def lookup(self, group: Tuple, signature: str,
               vector: Optional[np.ndarray] = None) -> Optional[SemanticEntry]:
        """The stored answer matching ``signature``/``vector``, if any."""
        return self.search(group, signature, vector).entry

    def _forget(self, group: Tuple) -> None:
        """Drop ``group``'s memo (caller holds the lock)."""
        self._memo_size -= len(self._memo.pop(group, ()))

    # -- maintenance --------------------------------------------------------------
    def put(self, group: Tuple, vector: np.ndarray, signature: str, result: Any,
            token_cost: int = 0, persist: bool = True) -> None:
        """Store one exactly-computed answer for future near-matches.

        ``persist=False`` is the restore path: entries loaded back from the
        store must not echo into it.  The write-through happens outside the
        lock — backend IO must not serialize lookups.
        """
        if persist and self.store is not None:
            self.store.put_semantic(group, signature, result, token_cost)
        entry = SemanticEntry(vector=vector, signature=signature,
                              result=copy.deepcopy(result),
                              token_cost=max(0, int(token_cost)))
        with self._lock:
            entries = self._groups.setdefault(group, [])
            self._groups.move_to_end(group)
            entries.append(entry)
            self.index.add(group, vector, entry)
            self.stats.entries += 1
            self._forget(group)
            # Evict globally, oldest-group-first, so the configured capacity
            # bounds the whole tier rather than each group.  The index entry
            # goes with the cache entry — an evicted answer must never be
            # findable through a stale bucket.
            while self.stats.entries > self.capacity:
                oldest_group, oldest_entries = next(iter(self._groups.items()))
                evicted = oldest_entries.pop(0)
                self.index.remove(oldest_group, evicted.vector, evicted)
                self.stats.entries -= 1
                self._forget(oldest_group)
                if not oldest_entries:
                    del self._groups[oldest_group]

    def restore_persisted(self) -> int:
        """Rebuild the tier (entries + LSH index) from the attached store.

        Safe to call at startup *and* after a corpus-reload ``clear()``:
        a persisted answer is fully determined by its signature — the exact
        term sets travel inside it — so unlike live candidate term lists it
        cannot go stale when the corpus changes.  Returns entries restored
        (0 without a store); restores stop at ``capacity``.
        """
        if self.store is None:
            return 0
        restored = 0
        for group, signature, result, token_cost in self.store.load_semantic():
            if restored >= self.capacity:
                break
            vector = self.embed_signature(signature)
            self.put(group, vector, signature, result, token_cost,
                     persist=False)
            restored += 1
        return restored

    def clear(self) -> None:
        """Drop every stored answer *and* its index entry (counters kept).

        This is the corpus-reload / volatile-invalidation path: the entry
        store and the LSH index are cleared under one lock so no probe can
        observe an index entry whose answer is gone.
        """
        with self._lock:
            self._groups.clear()
            self.index.clear()
            self.stats.entries = 0
            self._memo.clear()
            self._memo_size = 0

    # -- observability ------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            payload: Dict[str, Any] = self.stats.as_dict()
            payload["mode"] = self.mode
            payload["semantic_memo"] = self._memo_size
            payload["ann"] = self.index.as_dict()
            return payload
