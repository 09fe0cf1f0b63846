"""Offline profiling cache.

The paper notes that profiling function implementations on the fly slows query
planning down and asks how the effort could be reduced "e.g., through offline
profiling".  The :class:`ProfileCache` answers that question's engineering
half: per-(family, variant) statistics from earlier profiling runs are kept
(optionally written through a skill-store backend, so they survive restarts)
and reused by the optimizer, so repeated queries skip the per-candidate
execution of sample rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING, Tuple

from repro.fao.profiler import ProfileResult

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.skills.backends import SkillBackend


@dataclass
class CachedProfile:
    """Aggregated profiling statistics for one (family, variant) pair."""

    tokens_per_row: float = 0.0
    runtime_per_row_s: float = 0.0
    success_rate: float = 1.0
    samples: int = 0

    def update(self, profile: ProfileResult) -> None:
        """Fold one fresh profile into the running averages."""
        rows = max(1, profile.rows_in)
        tokens_per_row = profile.tokens_used / rows
        runtime_per_row = profile.runtime_s / rows
        success = 1.0 if profile.success else 0.0
        total = self.samples + 1
        self.tokens_per_row = (self.tokens_per_row * self.samples + tokens_per_row) / total
        self.runtime_per_row_s = (self.runtime_per_row_s * self.samples + runtime_per_row) / total
        self.success_rate = (self.success_rate * self.samples + success) / total
        self.samples = total

    def as_profile(self, function_name: str, variant: str, rows_in: int) -> ProfileResult:
        """Materialize a synthetic ProfileResult from the cached statistics."""
        return ProfileResult(
            function_name=function_name,
            variant=variant,
            success=self.success_rate >= 0.5,
            runtime_s=self.runtime_per_row_s * rows_in,
            tokens_used=int(round(self.tokens_per_row * rows_in)),
            rows_in=rows_in,
            rows_out=rows_in,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "tokens_per_row": self.tokens_per_row,
            "runtime_per_row_s": self.runtime_per_row_s,
            "success_rate": self.success_rate,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "CachedProfile":
        return cls(
            tokens_per_row=float(payload.get("tokens_per_row", 0.0)),
            runtime_per_row_s=float(payload.get("runtime_per_row_s", 0.0)),
            success_rate=float(payload.get("success_rate", 1.0)),
            samples=int(payload.get("samples", 0)),
        )


class ProfileCache:
    """A (family, variant)-keyed cache of profiling statistics."""

    def __init__(self, min_samples: int = 1,
                 backend: Optional["SkillBackend"] = None, backend_key: str = "profiles"):
        self.min_samples = min_samples
        # Optional durable storage through a skill-store backend (one store,
        # one path): entries are loaded at construction and written through
        # on every record, so profiling statistics survive restarts together
        # with the skills they price.
        self.backend = backend
        self.backend_key = backend_key
        self._entries: Dict[Tuple[str, str], CachedProfile] = {}
        # One cache is shared by every session's optimizer; updates are
        # multi-field read-modify-writes and must stay atomic under
        # concurrent compiles.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.backend is not None:
            for key, value in (self.backend.get(self.backend_key) or {}).items():
                family, _, variant = key.partition("::")
                self._entries[(family, variant)] = CachedProfile.from_dict(value)

    # -- lookups -----------------------------------------------------------------
    def get(self, family: str, variant: str) -> Optional[CachedProfile]:
        """A usable cached profile, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get((family, variant))
            if entry is not None and entry.samples >= self.min_samples:
                self.hits += 1
                # Hand out a snapshot so callers read a consistent set of
                # averages even if another thread folds in a sample now.
                return CachedProfile.from_dict(entry.to_dict())
            self.misses += 1
            return None

    def record(self, family: str, variant: str, profile: ProfileResult) -> CachedProfile:
        """Fold a freshly measured profile into the cache."""
        with self._lock:
            entry = self._entries.setdefault((family, variant), CachedProfile())
            entry.update(profile)
            payload = self._payload() if self.backend is not None else None
        if self.backend is not None and payload is not None:
            self.backend.put(self.backend_key, payload)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, tuple) and key in self._entries

    # -- persistence ----------------------------------------------------------------
    def _payload(self) -> Dict[str, Dict[str, Any]]:
        """Serializable entries (caller must hold the lock)."""
        return {f"{family}::{variant}": entry.to_dict()
                for (family, variant), entry in self._entries.items()}

    def describe(self) -> str:
        lines = [f"profile cache ({len(self._entries)} entries, "
                 f"{self.hits} hits / {self.misses} misses)"]
        for (family, variant), entry in sorted(self._entries.items()):
            lines.append(f"  {family}/{variant}: {entry.tokens_per_row:.1f} tokens/row, "
                         f"{entry.samples} samples")
        return "\n".join(lines)
