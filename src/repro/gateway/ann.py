"""Locality-sensitive hashing (LSH) index for the semantic near-match tier.

The semantic tier (:mod:`repro.gateway.semantic`) keys answered predicate
requests by an embedding of their term signature and serves a stored answer
when a new request's signature clears a cosine threshold.  The original
implementation scanned every stored vector in the request's group linearly —
fine for a toy corpus, quadratic pain at service scale.  This module gives
the tier the sublinear shape the related work applies to large key spaces
(SHIP's prefix-characteristic hashing, Othello's memory-efficient lookup
structures — see PAPERS.md): hash each signature vector into a small bucket
key and only scan the handful of vectors sharing (or neighbouring) that
bucket.

**Random-hyperplane signatures.**  ``planes`` fixed random hyperplanes (a
seeded Gaussian matrix, identical across runs) cut the embedding space into
``2**planes`` cells; a vector's bucket key is the bitmask of which side of
each hyperplane it falls on.  Two vectors with cosine similarity ``s``
disagree on one plane with probability ``acos(s)/pi`` — at the tier's 0.97+
thresholds that is a few percent per plane, so near-identical signatures
almost always share a bucket.

**Multi-probe.**  The residual risk is a near-match sitting just across one
hyperplane.  Rather than doubling the table count (classic L-table LSH),
the index probes *near* buckets: the query's ``probes`` lowest-margin bits
(the hyperplanes the vector is closest to) are flipped — singly, then in
pairs — and those neighbouring buckets are scanned too.  Lookup cost is
``O(planes · dims)`` for the hash plus the occupancy of ``1 + probes``
buckets, independent of the total entry count.

The index stores whatever entry objects the caller hands it (the semantic
cache stores its :class:`~repro.gateway.semantic.SemanticEntry` values) and
never copies vectors.  It is **not** internally locked: the owning cache
serializes access under its own mutex, exactly as it does for its entry
store, so index and store can never diverge mid-operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

#: Seed for the hyperplane matrix: fixed so bucket keys are stable across
#: runs and across index instances of the same geometry (an index rebuilt
#: after a restart re-derives identical buckets for identical vectors).
PLANE_SEED = 0x5EED


@dataclass
class AnnStats:
    """Counters the index keeps about its own behaviour."""

    lookups: int = 0           # candidate scans issued
    probes: int = 0            # buckets probed across all lookups
    candidates: int = 0        # entries handed back for exact re-scoring
    inserts: int = 0
    removals: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"lookups": self.lookups, "probes": self.probes,
                "candidates": self.candidates, "inserts": self.inserts,
                "removals": self.removals}


class LSHIndex:
    """A multi-probe random-hyperplane LSH index over grouped vectors.

    Entries are partitioned by an opaque ``group`` key first (the semantic
    tier groups by model/method/lexicon/kwargs — vectors from different
    groups must never meet), then bucketed by their hyperplane bitmask.
    """

    def __init__(self, planes: int = 16, probes: int = 8,
                 dimensions: Optional[int] = None):
        if not 1 <= planes <= 64:
            raise ValueError("planes must be in [1, 64]")
        if probes < 0:
            raise ValueError("probes must be non-negative")
        self.planes = planes
        self.probes = probes
        self._matrix: Optional[np.ndarray] = None
        # group -> bucket bitmask -> entries, insertion-ordered.
        self._tables: Dict[Any, Dict[int, List[Any]]] = {}
        self._size = 0
        self.stats = AnnStats()
        if dimensions is not None:
            self._ensure_matrix(dimensions)

    def __len__(self) -> int:
        return self._size

    # -- hashing ------------------------------------------------------------------
    def _ensure_matrix(self, dimensions: int) -> np.ndarray:
        if self._matrix is not None and self._matrix.shape[1] != dimensions:
            if self._size:
                raise ValueError(
                    f"vector dimensionality changed: index holds entries "
                    f"hashed for {self._matrix.shape[1]} dims, got {dimensions}")
            # Empty index: re-derive the planes for the new geometry (the
            # eager pre-sizing from the embedder width is just a warm-up).
            self._matrix = None
        if self._matrix is None:
            rng = np.random.default_rng(PLANE_SEED)
            self._matrix = rng.standard_normal((self.planes, dimensions))
        return self._matrix

    def _margins(self, vector: np.ndarray) -> np.ndarray:
        matrix = self._ensure_matrix(int(np.asarray(vector).shape[-1]))
        return matrix @ np.asarray(vector, dtype=float)

    def key_of(self, vector: np.ndarray) -> int:
        """The bucket bitmask of one vector (which side of each plane)."""
        return self._pack(self._margins(vector))

    @staticmethod
    def _pack(margins: np.ndarray) -> int:
        bits = 0
        for index, margin in enumerate(margins):
            if margin >= 0.0:
                bits |= 1 << index
        return bits

    def probe_sequence(self, vector: np.ndarray) -> Iterator[int]:
        """Bucket keys to scan for ``vector``, nearest-first.

        The exact bucket comes first, then the ``probes`` most-likely
        neighbours: buckets reached by flipping the lowest-|margin| bits
        (the hyperplanes the vector sits closest to), singly in ascending
        margin order, then in pairs ordered by combined margin rank.
        """
        margins = self._margins(vector)
        home = self._pack(margins)
        yield home
        if not self.probes:
            return
        order = [int(i) for i in np.argsort(np.abs(margins))]
        emitted = 0
        for index in order:
            if emitted >= self.probes:
                return
            yield home ^ (1 << index)
            emitted += 1
        for first, second in itertools.combinations(order, 2):
            if emitted >= self.probes:
                return
            yield home ^ (1 << first) ^ (1 << second)
            emitted += 1

    # -- maintenance --------------------------------------------------------------
    def add(self, group: Any, vector: np.ndarray, entry: Any) -> None:
        """Index one entry under its group and bucket."""
        bucket = self.key_of(vector)
        self._tables.setdefault(group, {}).setdefault(bucket, []).append(entry)
        self._size += 1
        self.stats.inserts += 1

    def remove(self, group: Any, vector: np.ndarray, entry: Any) -> bool:
        """Drop one indexed entry (identity match); True when found."""
        buckets = self._tables.get(group)
        if not buckets:
            return False
        bucket = self.key_of(vector)
        entries = buckets.get(bucket)
        if not entries:
            return False
        for position, candidate in enumerate(entries):
            if candidate is entry:
                del entries[position]
                self._size -= 1
                self.stats.removals += 1
                if not entries:
                    del buckets[bucket]
                if not buckets:
                    del self._tables[group]
                return True
        return False

    def clear(self) -> None:
        """Drop every indexed entry (the plane matrix is kept)."""
        self._tables.clear()
        self._size = 0

    # -- lookup -------------------------------------------------------------------
    def candidates(self, group: Any, vector: np.ndarray) -> List[Any]:
        """Entries worth exact re-scoring for ``vector``, probe order.

        Scans the home bucket plus up to ``probes`` near buckets within the
        group; everything returned still goes through the caller's exact
        cosine check, so the index can only *restrict* the candidate set a
        linear scan would have considered — never invent a match.
        """
        self.stats.lookups += 1
        buckets = self._tables.get(group)
        if not buckets:
            # The probe budget was spent on nothing: an empty group is one
            # dictionary miss, not `probes` of them.
            self.stats.probes += 1
            return []
        found: List[Any] = []
        for bucket in self.probe_sequence(vector):
            self.stats.probes += 1
            entries = buckets.get(bucket)
            if entries:
                found.extend(entries)
        self.stats.candidates += len(found)
        return found

    # -- observability ------------------------------------------------------------
    def occupancy(self) -> Dict[str, int]:
        """Bucket occupancy counters for the gateway's stats surface."""
        sizes = [len(entries) for buckets in self._tables.values()
                 for entries in buckets.values()]
        return {
            "entries": self._size,
            "groups": len(self._tables),
            "buckets": len(sizes),
            "max_bucket": max(sizes, default=0),
        }

    def as_dict(self) -> Dict[str, int]:
        payload = self.occupancy()
        payload.update(self.stats.as_dict())
        return payload

