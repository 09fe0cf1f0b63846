"""Columnar in-memory tables behind the historical row-dict API.

Storage is one typed value vector per column (:class:`ColumnStore`); the
row-dict API every call site was written against survives as lightweight
:class:`RowView` proxies.  ``Table.fork()`` (and ``copy()``, now an alias)
is an O(columns) copy-on-write fork: both tables share every column vector
until one of them writes, at which point only the touched column is copied.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.errors import SchemaError, UnknownColumnError
from repro.relational.columns import ColumnStore, RowView
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType


class TrackedRows(MutableSequence):
    """A mutation-tracking row-proxy view over a table's columnar store.

    ``Table.rows`` hands this out instead of a raw list so that *external*
    structural mutation cannot silently bypass index staleness tracking:
    appends (``append``/``extend``/``+=``) keep the append-only contract
    secondary indexes rely on (they index the suffix), while in-place
    replacement, deletion, insertion, and reordering bump the table's
    ``non_append_version`` exactly as the validated mutation API does — so a
    :class:`~repro.relational.indexes.HashIndex` rebuilds instead of serving
    stale positions.  Indexing returns live :class:`RowView` proxies, and
    because their cell writes also route through the table, even
    ``table.rows[0]["col"] = x`` is tracked now (the hole the row-dict
    layout could not close).  Row *values* still bypass schema validation,
    as the raw-list escape hatch always has.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "Table"):
        self._table = table

    # -- read access (no tracking needed) ---------------------------------------
    def __len__(self) -> int:
        return len(self._table._store)

    def _normalize(self, index: int) -> int:
        length = len(self._table._store)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("row index out of range")
        return index

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [RowView(self._table, i)
                    for i in range(*index.indices(len(self._table._store)))]
        return RowView(self._table, self._normalize(index))

    def __iter__(self) -> Iterator[RowView]:
        for i in range(len(self._table._store)):
            yield RowView(self._table, i)

    def _materialize(self) -> List[Dict[str, Any]]:
        return [self._table._store.row_dict(i)
                for i in range(len(self._table._store))]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TrackedRows):
            return self._materialize() == other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self._materialize())

    # -- append-like mutation (suffix-indexable, no version bump) ---------------
    def append(self, row: Dict[str, Any]) -> None:
        self._table._store.append_row(row)

    def extend(self, rows: Iterable[Dict[str, Any]]) -> None:
        store = self._table._store
        for row in rows:
            store.append_row(row)

    # -- non-append mutation (bumps the staleness counter) ----------------------
    def __setitem__(self, index, value) -> None:
        store = self._table._store
        if isinstance(index, slice):
            rows = self._materialize()
            rows[index] = [dict(row) for row in value]
            self._table._rebuild(rows)
        else:
            store.set_row(self._normalize(index), value)
        self._table._non_append_version += 1

    def __delitem__(self, index) -> None:
        if isinstance(index, slice):
            self._table._store.delete_rows(index)
        else:
            self._table._store.delete_rows(self._normalize(index))
        self._table._non_append_version += 1

    def insert(self, index: int, value: Dict[str, Any]) -> None:
        self._table._store.insert_row(index, value)
        self._table._non_append_version += 1

    def pop(self, index: int = -1) -> Dict[str, Any]:
        position = self._normalize(index)
        row = self._table._store.row_dict(position)
        self._table._store.delete_rows(position)
        self._table._non_append_version += 1
        return row

    def clear(self) -> None:
        self._table._store.clear()
        self._table._non_append_version += 1

    def sort(self, **kwargs) -> None:
        rows = self._materialize()
        rows.sort(**kwargs)
        self._table._rebuild(rows)
        self._table._non_append_version += 1

    def reverse(self) -> None:
        self._table._store.reverse()
        self._table._non_append_version += 1


class Table:
    """A named, typed, columnar table with a row-dict compatible API.

    Values live in per-column vectors; row access (iteration, indexing)
    yields :class:`RowView` mapping proxies that read and write through to
    the columns.  The table validates rows against its schema on insert and
    offers a handful of dataframe-style conveniences (``head``, ``order_by``,
    ``where``) used by the FAO implementation library, plus whole-column
    accessors the columnar operators build on.
    """

    def __init__(self, name: str, schema: Schema, rows: Optional[Iterable[Dict[str, Any]]] = None,
                 description: str = ""):
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.description = description
        self._store = ColumnStore(schema.column_names())
        self._schema = schema
        # One reusable rows view (it holds no state beyond the table
        # reference); per-row compatibility loops access ``.rows`` hotly.
        self._rows_view = TrackedRows(self)
        # Bumped by every mutation that is *not* a pure append (delete,
        # update, truncate, add_column, in-place cell writes through row
        # views): secondary indexes use it to tell "new rows were appended"
        # (index the suffix) from "existing rows changed" (rebuild).
        self._non_append_version = 0
        # Column names whose values were lost in a serialization round-trip
        # (BLOBs come back as NULL); set by :meth:`from_dict` and propagated
        # through forks.
        self.lossy_columns: List[str] = []
        if rows:
            self.insert_many(rows)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, rows: Sequence[Dict[str, Any]], schema: Optional[Schema] = None,
                  description: str = "") -> "Table":
        """Build a table from row dicts, inferring the schema when not given."""
        rows = list(rows)
        if schema is None:
            if not rows:
                raise SchemaError(f"cannot infer schema for empty table {name!r}")
            schema = Schema.infer(rows)
        return cls(name, schema, rows, description=description)

    @classmethod
    def _adopt(cls, name: str, schema: Schema, store: ColumnStore,
               description: str = "", lossy_columns: Iterable[str] = ()) -> "Table":
        """Internal: wrap an existing store without re-validating values."""
        table = cls(name, schema, description=description)
        table._store = store
        table.lossy_columns = list(lossy_columns)
        return table

    def empty_like(self, name: Optional[str] = None) -> "Table":
        """A new empty table with the same schema."""
        return Table(name or self.name, Schema(list(self.schema.columns)),
                     description=self.description)

    def fork(self, name: Optional[str] = None) -> "Table":
        """O(columns) copy-on-write fork.

        The fork shares every column vector with this table; the first write
        to a column — on either side — copies just that column.  Untouched
        columns stay physically shared (zero-copy), which is what makes
        session overlays and samples cheap.  ``lossy_columns`` propagates.
        """
        clone = self.empty_like(name)
        clone._store = self._store.fork()
        clone.lossy_columns = list(self.lossy_columns)
        return clone

    def copy(self, name: Optional[str] = None) -> "Table":
        """A logically independent copy (copy-on-write; alias of :meth:`fork`).

        Historically this deep-copied every row dict while *implicitly*
        sharing blob payloads.  Sharing is now explicit and column-granular:
        untouched columns (blob payloads included) stay shared until written.
        """
        return self.fork(name)

    # -- basic protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[RowView]:
        for i in range(len(self._store)):
            yield RowView(self, i)

    def __getitem__(self, index):
        return self._rows_view[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, columns={self.schema.column_names()}, rows={len(self)})"

    @property
    def schema(self) -> Schema:
        return self._schema

    @schema.setter
    def schema(self, value: Schema) -> None:
        """Replace the schema, materializing any new columns as NULL vectors."""
        self._schema = value
        for column_name in value.column_names():
            if self._store.resolve(column_name) is None:
                self._store.add_column(column_name)

    @property
    def rows(self) -> "TrackedRows":
        """A mutation-tracking row-proxy view over the columnar store.

        Reading (iteration, indexing, slicing) yields :class:`RowView`
        proxies that behave like the row dicts did.  Structural mutation
        through the view bypasses validation (as the raw list always did)
        but no longer bypasses index staleness tracking: non-append
        operations — including in-place cell writes on the proxies — bump
        ``non_append_version`` so secondary indexes rebuild
        (see :class:`TrackedRows`).
        """
        return self._rows_view

    @rows.setter
    def rows(self, value: Iterable[Dict[str, Any]]) -> None:
        """Replace the rows wholesale (a non-append mutation)."""
        self._rebuild([dict(row) for row in value])
        self._non_append_version += 1

    @property
    def non_append_version(self) -> int:
        """Counter of non-append mutations (see ``__init__``)."""
        return self._non_append_version

    def column_names(self) -> List[str]:
        """Column names, in schema order."""
        return self.schema.column_names()

    # -- internal columnar plumbing ---------------------------------------------
    def _rebuild(self, rows: List[Dict[str, Any]]) -> None:
        """Swap in a fresh store built from materialized row dicts."""
        store = ColumnStore(self._store.column_names())
        for row in rows:
            store.append_row(row)
        self._store = store

    def _set_cell(self, index: int, key: str, value: Any) -> None:
        """Write-through for :class:`RowView`: tracked, unvalidated."""
        self._store.set_value(index, key, value)
        self._non_append_version += 1

    def column(self, name: str) -> List[Any]:
        """The raw (possibly shared) column vector for ``name``.

        This is the zero-copy read path the columnar operators use.  Treat
        the returned list as read-only; use :meth:`set_column` or the
        mutation API to write.
        """
        col = self.schema.column(name)
        return self._store.column(col.name)

    def set_column(self, name: str, values: Sequence[Any]) -> None:
        """Replace one column's values wholesale (validated, tracked)."""
        col = self.schema.column(name)
        self._store.set_column(col.name, [col.validate(v) for v in values])
        self._non_append_version += 1

    def shares_column(self, other: "Table", name: str) -> bool:
        """True when both tables still share ``name``'s vector (zero-copy)."""
        return self._store.shares_column_with(other._store, name)

    # -- mutation ---------------------------------------------------------------
    def insert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and append one row; returns the stored (coerced) row."""
        cleaned = self.schema.validate_row(row)
        self._store.append_row(cleaned)
        return cleaned

    def insert_many(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_where(self, predicate: Callable[[Dict[str, Any]], bool]) -> int:
        """Delete rows matching ``predicate``; returns how many were removed."""
        keep = [i for i in range(len(self._store))
                if not predicate(RowView(self, i))]
        removed = len(self._store) - len(keep)
        if removed:
            self._store.keep_positions(keep)
            self._non_append_version += 1
        return removed

    def update_where(self, predicate: Callable[[Dict[str, Any]], bool],
                     updates: Dict[str, Any]) -> int:
        """Apply ``updates`` to rows matching ``predicate``; returns the count."""
        for key in updates:
            if not self.schema.has_column(key):
                raise UnknownColumnError(f"unknown column in update: {key!r}")
        # Validate every value up front (validation is row-independent): a
        # bad value must raise before any row is touched, not mid-loop with
        # half the rows mutated.
        validated = {}
        for key, value in updates.items():
            col = self.schema.column(key)
            validated[col.name] = col.validate(value)
        count = 0
        try:
            for i in range(len(self._store)):
                if predicate(RowView(self, i)):
                    for column_name, value in validated.items():
                        self._store.set_value(i, column_name, value)
                    count += 1
        finally:
            # A predicate that raises mid-scan has already mutated earlier
            # rows; indexes must still see the change.
            if count:
                self._non_append_version += 1
        return count

    def add_column(self, column: Column, default: Any = None,
                   compute: Optional[Callable[[Dict[str, Any]], Any]] = None) -> None:
        """Add a column, filling it with ``default`` or ``compute(row)``."""
        if self.schema.has_column(column.name):
            raise SchemaError(f"column {column.name!r} already exists on {self.name!r}")
        if compute is not None:
            values = [column.validate(compute(RowView(self, i)))
                      for i in range(len(self._store))]
        else:
            values = [column.validate(default)] * len(self._store)
        self._schema = self._schema.add(column)
        self._store.add_column(column.name, values)
        self._non_append_version += 1

    def truncate(self) -> None:
        """Remove all rows."""
        self._store.clear()
        self._non_append_version += 1

    # -- dataframe-style helpers --------------------------------------------------
    def head(self, n: int = 5) -> List[Dict[str, Any]]:
        """The first ``n`` rows (copies, safe to hand to agents as samples)."""
        return [self._store.row_dict(i)
                for i in range(min(max(n, 0), len(self._store)))]

    def head_table(self, n: int, name: Optional[str] = None) -> "Table":
        """A new table holding the first ``n`` rows (column-sliced copy)."""
        result = self.empty_like(name)
        result._store = self._store.slice(0, max(n, 0))
        result.lossy_columns = list(self.lossy_columns)
        return result

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order (a fresh list)."""
        return list(self.column(name))

    def distinct_values(self, name: str) -> List[Any]:
        """Distinct values of one column, preserving first-seen order."""
        seen = set()
        out: List[Any] = []
        for value in self.column(name):
            key = repr(value)
            if key not in seen:
                seen.add(key)
                out.append(value)
        return out

    def where(self, predicate: Callable[[Mapping[str, Any]], bool],
              name: Optional[str] = None) -> "Table":
        """A new table holding rows matching ``predicate``."""
        # Imported here: both modules import this one.
        from repro.relational.expressions import Lambda
        from repro.relational.operators import filter_rows
        return filter_rows(self, Lambda(predicate), name=name)

    def order_by(self, column: str, descending: bool = False, name: Optional[str] = None) -> "Table":
        """A new table sorted by one column (NULLs first ascending)."""
        from repro.relational.operators import sort
        return sort(self, [(column, descending)], name=name)

    def select_columns(self, names: Sequence[str], name: Optional[str] = None) -> "Table":
        """A new table with only the given columns (vectors stay shared)."""
        schema = self.schema.project(names)
        store = self._store.fork_projection(
            [(col.name, col.name) for col in schema.columns])
        return Table._adopt(name or f"{self.name}_projected", schema, store,
                            lossy_columns=[c for c in self.lossy_columns
                                           if schema.has_column(c)])

    # -- statistics ---------------------------------------------------------------
    def null_fraction(self, column: str) -> float:
        """Fraction of rows whose value for ``column`` is NULL."""
        values = self.column(column)
        if not values:
            return 0.0
        return sum(1 for v in values if v is None) / len(values)

    def cardinality(self, column: str) -> int:
        """Number of distinct values in ``column``."""
        return len(self.distinct_values(column))

    # -- serialization --------------------------------------------------------------
    def _encode_value(self, col: Column, value: Any) -> Any:
        if col.data_type is DataType.BLOB and value is not None:
            return {"__blob__": True, "repr": f"<blob:{type(value).__name__}>"}
        return value

    def to_dict(self) -> Dict[str, Any]:
        """Serialize schema and data (BLOB values are replaced by a marker).

        The payload is columnar — one value vector per column, the on-disk
        format :class:`~repro.relational.storage.TableStorage` writes — and
        restores through :meth:`from_dict`.
        """
        return {
            "name": self.name,
            "description": self.description,
            "schema": self.schema.to_dict(),
            "format": "columnar",
            "row_count": len(self._store),
            "lossy_columns": list(self.lossy_columns),
            "columns": {
                col.name: [self._encode_value(col, v)
                           for v in self._store.column(col.name)]
                for col in self.schema.columns
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Table":
        """Inverse of :meth:`to_dict`: restore a columnar payload.

        A payload that is not marked ``format == "columnar"`` (such as the
        retired row-major layout) raises :class:`ValueError` naming the
        table, rather than loading as an empty table.

        The restore is *lossy* for BLOB columns: their payloads were replaced
        by markers at save time and come back as NULL.  Affected column names
        are recorded on ``table.lossy_columns`` so callers can detect the
        loss instead of silently reading NULLs
        (:meth:`~repro.relational.storage.TableStorage.load` also emits a
        :class:`~repro.relational.storage.LossyBlobWarning`).  The payload
        also carries ``lossy_columns`` forward, so a table that was already
        lossy stays marked across further round-trips.
        """
        if payload.get("format") != "columnar":
            raise ValueError(f"table {payload.get('name')!r}: not a columnar "
                             f"payload (format={payload.get('format')!r})")
        schema = Schema.from_dict(payload["schema"])
        table = cls(payload["name"], schema, description=payload.get("description", ""))
        lossy = set(payload.get("lossy_columns", []))
        count = int(payload.get("row_count", 0))
        encoded_columns = payload.get("columns", {})
        columns: Dict[str, List[Any]] = {}
        for col in schema.columns:
            raw = encoded_columns.get(col.name)
            if raw is None:
                raw = [None] * count
            decoded = []
            for value in raw:
                if isinstance(value, dict) and value.get("__blob__"):
                    decoded.append(None)
                    lossy.add(col.name)
                else:
                    decoded.append(col.validate(value))
            columns[col.name] = decoded
        table._store.replace_all(columns, count)
        table.lossy_columns = sorted(lossy)
        return table

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width text rendering of the first ``limit`` rows."""
        names = self.column_names()
        shown = self.head(limit)

        def fmt(value: Any) -> str:
            if value is None:
                return "NULL"
            if isinstance(value, float):
                return f"{value:.4g}"
            text = str(value)
            return text if len(text) <= 28 else text[:25] + "..."

        widths = {n: len(n) for n in names}
        rendered = []
        for row in shown:
            cells = {n: fmt(row.get(n)) for n in names}
            for n in names:
                widths[n] = max(widths[n], len(cells[n]))
            rendered.append(cells)
        header = " | ".join(n.ljust(widths[n]) for n in names)
        sep = "-+-".join("-" * widths[n] for n in names)
        lines = [header, sep]
        for cells in rendered:
            lines.append(" | ".join(cells[n].ljust(widths[n]) for n in names))
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)
