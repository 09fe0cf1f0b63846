"""The function registry: versioned storage of generated functions.

The paper requires that "each function is assigned an identifier and a version
tag ... these functions are persisted locally on disk", enabling precise
lineage queries, safe roll-backs, and iterative refinement.  The registry
keeps every version in memory and mirrors each one through a *source sink* —
a skill-store backend whose ``put_source`` writes the source file plus a
metadata JSON — so there is exactly one persistence path for generated code.
The owner picks the sink (:class:`~repro.api.service.KathDBService` mounts a
:class:`~repro.skills.backends.FileBackend` at ``KathDBConfig.workspace``).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import FunctionGenerationError
from repro.fao.function import GeneratedFunction

if TYPE_CHECKING:  # pragma: no cover - skills imports fao, so defer at runtime
    from repro.skills.backends import SkillBackend


class FunctionRegistry:
    """Stores generated functions by name and version."""

    def __init__(self, source_sink: Optional["SkillBackend"] = None):
        self._versions: Dict[str, List[GeneratedFunction]] = {}
        # The registry is shared by every session of a service; registration
        # must stay atomic when concurrent queries repair functions.
        self._lock = threading.Lock()
        self.source_sink = source_sink

    # -- registration -------------------------------------------------------------
    def register(self, function: GeneratedFunction) -> GeneratedFunction:
        """Register a new implementation, assigning the next version id.

        The function's ``version`` attribute is overwritten with the assigned
        version (existing versions are never modified or removed).
        """
        with self._lock:
            versions = self._versions.setdefault(function.name, [])
            function.version = len(versions) + 1
            versions.append(function)
        if self.source_sink is not None:
            self.source_sink.put_source(function)
        return function

    # -- lookup ----------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered function names."""
        return sorted(self._versions)

    def versions(self, name: str) -> List[GeneratedFunction]:
        """All versions of one function (oldest first)."""
        return list(self._versions.get(name, []))

    def latest(self, name: str) -> GeneratedFunction:
        """The most recent version of one function."""
        versions = self._versions.get(name)
        if not versions:
            raise FunctionGenerationError(f"no generated function named {name!r}")
        return versions[-1]

    def get(self, name: str, version: int) -> GeneratedFunction:
        """A specific version of one function."""
        for function in self._versions.get(name, []):
            if function.version == version:
                return function
        raise FunctionGenerationError(f"no version {version} of function {name!r}")

    def has(self, name: str) -> bool:
        """Whether any version of ``name`` exists."""
        return bool(self._versions.get(name))

    def version_count(self, name: str) -> int:
        """How many versions of ``name`` exist (0 if unknown)."""
        return len(self._versions.get(name, []))

    def total_functions(self) -> int:
        """Number of distinct function names."""
        return len(self._versions)

    def total_versions(self) -> int:
        """Number of implementations across all names."""
        return sum(len(v) for v in self._versions.values())

    def rollback(self, name: str) -> GeneratedFunction:
        """Return the previous version of a function (the roll-back target).

        Does not delete anything: versions are immutable.  Raises when there is
        no earlier version to roll back to.
        """
        versions = self._versions.get(name, [])
        if len(versions) < 2:
            raise FunctionGenerationError(f"function {name!r} has no earlier version to roll back to")
        return versions[-2]

    def describe(self) -> str:
        """One line per function with its version count and latest variant."""
        lines = ["function registry"]
        for name in self.names():
            latest = self.latest(name)
            lines.append(f"  {name:<28} versions={self.version_count(name)} "
                         f"latest={latest.implementation_kind}/{latest.variant}")
        return "\n".join(lines)
