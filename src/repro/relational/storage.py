"""On-disk persistence for tables (JSON files in a workspace directory)."""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import List, Union

from repro.errors import StorageError
from repro.relational.table import Table
from repro.utils.io import atomic_write_text


class LossyBlobWarning(UserWarning):
    """A loaded table's BLOB column(s) came back as NULL.

    BLOB payloads are replaced by markers at save time (only a marker is
    stored, matching the paper's practice of persisting file paths rather
    than pixels), so the restore is lossy by design.  This warning — and the
    ``lossy_columns`` attribute on the loaded table — make the loss
    detectable instead of silent.
    """


class TableStorage:
    """Persist tables as one JSON file per table inside a directory.

    KathDB materializes intermediate results and persists generated functions;
    this class covers the table side of that requirement.  Tables are written
    and read in the **columnar** format (one value vector per column,
    matching the in-memory :class:`~repro.relational.columns.ColumnStore`
    layout); a file in any other layout (such as the retired row-major one)
    is rejected by :meth:`~repro.relational.table.Table.from_dict`.  BLOB
    columns (raw pixel arrays) are not serialized — they are replaced by a
    marker and come back as NULL.  :meth:`load` flags such lossy restores:
    the returned table's ``lossy_columns`` lists the affected columns and a
    :class:`LossyBlobWarning` is emitted, so callers that need the payloads
    can re-render them (e.g. from the original image URIs) rather than
    silently reading NULLs.  ``lossy_columns`` survives further round-trips:
    the columnar payload carries it forward explicitly.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
        return self.directory / f"{safe}.json"

    def save(self, table: Table) -> Path:
        """Write one table atomically; returns the file path."""
        path = self._path(table.name)
        try:
            payload = table.to_dict()
            text = json.dumps(payload, indent=2, default=_json_default)
            atomic_write_text(path, text)
        except (OSError, TypeError, ValueError) as error:
            raise StorageError(f"failed to save table {table.name!r}: {error}") from error
        return path

    def load(self, name: str) -> Table:
        """Load one table by name.

        Emits a :class:`LossyBlobWarning` (and sets ``table.lossy_columns``)
        when BLOB columns were restored as NULL.  A file that is not a
        columnar payload raises :class:`ValueError` (see
        :meth:`~repro.relational.table.Table.from_dict`).
        """
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"no stored table named {name!r} in {self.directory}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(f"failed to load table {name!r}: {error}") from error
        table = Table.from_dict(payload)
        if table.lossy_columns:
            warnings.warn(
                f"table {name!r} was restored with NULL BLOB column(s) "
                f"{table.lossy_columns} (payloads are not persisted); "
                "check table.lossy_columns before relying on them",
                LossyBlobWarning, stacklevel=2)
        return table

    def exists(self, name: str) -> bool:
        """Whether a stored table with this name exists."""
        return self._path(name).exists()

    def delete(self, name: str) -> bool:
        """Delete a stored table; returns True if a file was removed."""
        path = self._path(name)
        if path.exists():
            path.unlink()
            return True
        return False

    def list_tables(self) -> List[str]:
        """Names of all stored tables."""
        names = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                names.append(payload.get("name", path.stem))
            except (OSError, json.JSONDecodeError):
                continue
        return names


def _json_default(value):
    """Fallback serializer: numpy scalars/arrays and sets become plain types."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, bytes):
        return {"__bytes__": True, "length": len(value)}
    return str(value)
