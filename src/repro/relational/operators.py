"""Relational-algebra operators over :class:`~repro.relational.table.Table`.

Each operator is a small class with an ``execute()`` method returning a new
table; they can be composed into trees.  Plain functions (``filter_rows``,
``hash_join``, ...) are also provided because the generated FAO function
bodies call them directly.

All pure-relational operators here work **column-at-a-time** over the
table's shared vectors: predicates and computed columns are evaluated by
:meth:`Expression.evaluate_column`, the only expression evaluator (it keeps
``AND``/``OR`` short-circuit order with a selection vector), and row
construction is replaced by position gathers and vector concats.
Projection and rename stay zero-copy: the output shares the input's column
vectors under copy-on-write.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RelationalError, UnknownColumnError
from repro.relational.expressions import Expression
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, compare_values


# ---------------------------------------------------------------------------
# Functional API (columnar)
# ---------------------------------------------------------------------------
def _vector(table: Table, name: str) -> List[Any]:
    """The raw vector for ``name`` (case-insensitive), NULLs when absent.

    Mirrors the historical ``row.get(name)`` semantics: a name that resolves
    to no stored column reads as all-NULL rather than raising.
    """
    store = table._store
    resolved = store.resolve(name)
    if resolved is None:
        return [None] * len(store)
    return store.column(resolved)


def filter_rows(table: Table, predicate: Expression, name: Optional[str] = None) -> Table:
    """Selection: keep rows where ``predicate`` evaluates truthy."""
    mask = predicate.evaluate_column(table)
    positions = [i for i, keep in enumerate(mask) if keep]
    result = table.empty_like(name or f"{table.name}_filtered")
    result._store = table._store.gather(positions)
    return result


def project(table: Table, columns: Sequence[str], name: Optional[str] = None) -> Table:
    """Projection: keep (and reorder) the given columns (vectors shared)."""
    missing = [c for c in columns if not table.schema.has_column(c)]
    if missing:
        raise UnknownColumnError(f"projection references unknown columns {missing} on {table.name!r}")
    return table.select_columns(list(columns), name=name or f"{table.name}_projected")


def extend(table: Table, column_name: str, expression: Expression,
           data_type: Optional[DataType] = None, name: Optional[str] = None) -> Table:
    """Extended projection: add a computed column (input vectors shared)."""
    values = expression.evaluate_column(table)
    if data_type is None:
        data_type = DataType.JSON
        for value in values:
            if value is not None:
                data_type = DataType.infer(value)
                break
    column = Column(column_name, data_type)
    result_schema = table.schema.add(column)
    store = table._store.fork()
    store.set_column(column.name, [column.validate(v) for v in values])
    return Table._adopt(name or f"{table.name}_extended", result_schema, store,
                        description=table.description,
                        lossy_columns=table.lossy_columns)


def rename_columns(table: Table, mapping: Dict[str, str], name: Optional[str] = None) -> Table:
    """Rename columns according to ``mapping`` (vectors shared)."""
    schema = table.schema.rename(mapping)
    lowered = {k.lower(): v for k, v in mapping.items()}
    pairs = [(new.name, old.name) for old, new in zip(table.schema.columns, schema.columns)]
    store = table._store.fork_projection(pairs)
    lossy = [lowered.get(c.lower(), c) for c in table.lossy_columns]
    return Table._adopt(name or table.name, schema, store,
                        description=table.description, lossy_columns=lossy)


def distinct(table: Table, columns: Optional[Sequence[str]] = None, name: Optional[str] = None) -> Table:
    """Duplicate elimination over all columns or a subset."""
    keys = list(columns) if columns else table.column_names()
    vectors = [_vector(table, k) for k in keys]
    seen = set()
    positions: List[int] = []
    for i in range(len(table)):
        key = tuple(repr(vec[i]) for vec in vectors)
        if key not in seen:
            seen.add(key)
            positions.append(i)
    result = table.empty_like(name or f"{table.name}_distinct")
    result._store = table._store.gather(positions)
    return result


#: Non-None value-type sets a column may hold for the native key-sort fast
#: path to order exactly like ``compare_values`` (NULLs first ascending).
#: Mixed bool/number columns are excluded: ``compare_values`` collapses both
#: sides to bool there, which native comparison would not.
_NATIVE_SORT_TYPES = ({int}, {float}, {int, float}, {str}, {bool})


def _native_sortable(vector: List[Any]) -> bool:
    types = {type(v) for v in vector if v is not None}
    return not types or types in _NATIVE_SORT_TYPES


def sort(table: Table, keys: Sequence[Tuple[str, bool]], name: Optional[str] = None) -> Table:
    """Sort by multiple ``(column, descending)`` keys, NULLs first ascending."""
    for column, _ in keys:
        table.schema.column(column)
    vectors = [(_vector(table, column), descending) for column, descending in keys]

    if all(_native_sortable(vector) for vector, _ in vectors):
        # Homogeneous scalar keys: one C-level stable key-sort per key,
        # last key first (LSD), reproduces the lexicographic cmp order at a
        # fraction of the per-comparison cost.
        order = list(range(len(table)))
        for vector, descending in reversed(vectors):
            order.sort(key=lambda i, vec=vector: (0, 0) if vec[i] is None
                       else (1, vec[i]), reverse=descending)
    else:
        def cmp(a: int, b: int) -> int:
            for vector, descending in vectors:
                result = compare_values(vector[a], vector[b])
                if result is None:
                    result = compare_values(repr(vector[a]), repr(vector[b])) or 0
                if result != 0:
                    return -result if descending else result
            return 0

        order = sorted(range(len(table)), key=functools.cmp_to_key(cmp))
    result = table.empty_like(name or f"{table.name}_sorted")
    result._store = table._store.gather(order)
    return result


def limit(table: Table, count: int, offset: int = 0, name: Optional[str] = None) -> Table:
    """LIMIT/OFFSET (column slices)."""
    result = table.empty_like(name or f"{table.name}_limited")
    result._store = table._store.slice(offset, offset + count)
    return result


def union_all(left: Table, right: Table, name: Optional[str] = None) -> Table:
    """UNION ALL of two union-compatible tables (vector concatenation)."""
    if [c.lower() for c in left.column_names()] != [c.lower() for c in right.column_names()]:
        raise RelationalError(
            f"union of incompatible schemas: {left.column_names()} vs {right.column_names()}"
        )
    positional = dict(zip(left.column_names(), right.column_names()))
    columns: Dict[str, List[Any]] = {}
    for column_name in left._store.column_names():
        left_vector = left._store.column(column_name)
        right_name = positional.get(column_name)
        if right_name is not None:
            columns[column_name] = list(left_vector) + list(_vector(right, right_name))
        else:
            # Columns outside the schema (hidden/extra) have no right-hand
            # counterpart; the right half reads as NULL, as it always did.
            columns[column_name] = list(left_vector) + [None] * len(right)
    result = left.empty_like(name or f"{left.name}_union")
    result._store.replace_all(columns, len(left) + len(right))
    return result


def cross_product(left: Table, right: Table, name: Optional[str] = None) -> Table:
    """Cartesian product (right-hand colliding names get a ``_right`` suffix)."""
    schema = left.schema.merge(right.schema)
    left_names = left.column_names()
    merged_names = schema.column_names()
    right_out_names = merged_names[len(left_names):]
    n_right = len(right)
    columns: Dict[str, List[Any]] = {}
    for column_name in left_names:
        vector = _vector(left, column_name)
        columns[column_name] = [value for value in vector for _ in range(n_right)]
    for out_name, in_name in zip(right_out_names, right.column_names()):
        columns[out_name] = list(_vector(right, in_name)) * len(left)
    result = Table(name or f"{left.name}_x_{right.name}", schema)
    result._store.replace_all(columns, len(left) * n_right)
    return result


def hash_join(left: Table, right: Table, left_key: str, right_key: str,
              how: str = "inner", name: Optional[str] = None) -> Table:
    """Equi-join using a hash index on the right key vector.

    ``how`` is ``"inner"`` or ``"left"`` (left outer).  Colliding right-hand
    column names are suffixed with ``_right``.  Matching works over key
    vectors; output columns are built by position gathers.
    """
    left.schema.column(left_key)
    right.schema.column(right_key)
    if how not in ("inner", "left"):
        raise RelationalError(f"unsupported join type: {how!r}")

    schema = left.schema.merge(right.schema)
    left_names = left.column_names()
    merged_names = schema.column_names()
    right_out_names = merged_names[len(left_names):]
    right_in_names = right.column_names()

    index: Dict[Any, List[int]] = {}
    for position, key in enumerate(right.column(right_key)):
        if key is None:
            continue
        index.setdefault(_hashable(key), []).append(position)

    left_positions: List[int] = []
    right_positions: List[Optional[int]] = []
    for i, key in enumerate(left.column(left_key)):
        matches = index.get(_hashable(key)) if key is not None else None
        if matches:
            for position in matches:
                left_positions.append(i)
                right_positions.append(position)
        elif how == "left":
            left_positions.append(i)
            right_positions.append(None)

    columns: Dict[str, List[Any]] = {}
    for column_name in left_names:
        vector = _vector(left, column_name)
        columns[column_name] = [vector[i] for i in left_positions]
    for out_name, in_name in zip(right_out_names, right_in_names):
        vector = _vector(right, in_name)
        columns[out_name] = [vector[p] if p is not None else None
                             for p in right_positions]
    result = Table(name or f"{left.name}_join_{right.name}", schema)
    result._store.replace_all(columns, len(left_positions))
    return result


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def _agg_count(values: List[Any]) -> int:
    return sum(1 for v in values if v is not None)


def _agg_sum(values: List[Any]) -> Any:
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _agg_avg(values: List[Any]) -> Any:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _agg_min(values: List[Any]) -> Any:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _agg_max(values: List[Any]) -> Any:
    present = [v for v in values if v is not None]
    return max(present) if present else None


def _agg_collect(values: List[Any]) -> List[Any]:
    return [v for v in values if v is not None]


AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "mean": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
    "collect": _agg_collect,
}


@dataclass
class AggregateSpec:
    """One aggregate to compute: ``function(column) AS alias``."""

    function: str
    column: Optional[str]  # None means COUNT(*)
    alias: str

    def compute(self, rows: List[Dict[str, Any]]) -> Any:
        """Apply the aggregate over the rows of one group."""
        fn_name = self.function.lower()
        if fn_name == "count" and self.column is None:
            return len(rows)
        fn = AGGREGATES.get(fn_name)
        if fn is None:
            raise RelationalError(f"unknown aggregate function: {self.function!r}")
        values = [row.get(self.column) for row in rows]
        return fn(values)

    def compute_positions(self, table: Table, positions: Sequence[int]) -> Any:
        """Columnar twin of :meth:`compute`: aggregate over row positions."""
        fn_name = self.function.lower()
        if fn_name == "count" and self.column is None:
            return len(positions)
        fn = AGGREGATES.get(fn_name)
        if fn is None:
            raise RelationalError(f"unknown aggregate function: {self.function!r}")
        vector = _vector(table, self.column) if self.column is not None else []
        return fn([vector[p] for p in positions])


def aggregate(table: Table, group_by: Sequence[str], aggregates: Sequence[AggregateSpec],
              name: Optional[str] = None) -> Table:
    """GROUP BY with aggregates (empty ``group_by`` = global aggregation)."""
    for column in group_by:
        table.schema.column(column)
    for spec in aggregates:
        if spec.column is not None:
            table.schema.column(spec.column)

    key_vectors = [_vector(table, c) for c in group_by]
    groups: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    scalar_done = False
    if len(key_vectors) == 1:
        # Single-key fast path: group on the raw value (no per-row tuple
        # construction, no per-value hashability probe).  Falls back to the
        # general path the moment a value turns out unhashable.
        scalar_groups: Dict[Any, List[int]] = {}
        scalar_order: List[Any] = []
        try:
            for i, value in enumerate(key_vectors[0]):
                bucket = scalar_groups.get(value)
                if bucket is None:
                    scalar_groups[value] = [i]
                    scalar_order.append(value)
                else:
                    bucket.append(i)
            scalar_done = True
        except TypeError:
            pass
        if scalar_done:
            groups = {(key,): positions for key, positions in scalar_groups.items()}
            order = [(key,) for key in scalar_order]
    if not scalar_done:
        for i in range(len(table)):
            key = tuple(_hashable(vec[i]) for vec in key_vectors)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
    if not group_by and not groups:
        groups[()] = []
        order.append(())

    columns = [table.schema.column(c) for c in group_by]
    for spec in aggregates:
        if spec.function.lower() == "count":
            columns.append(Column(spec.alias, DataType.INTEGER))
        elif spec.function.lower() == "collect":
            columns.append(Column(spec.alias, DataType.JSON))
        elif spec.column is not None and table.schema.column(spec.column).data_type is DataType.INTEGER \
                and spec.function.lower() in ("sum", "min", "max"):
            columns.append(Column(spec.alias, DataType.INTEGER))
        else:
            columns.append(Column(spec.alias, DataType.FLOAT))
    schema = Schema(columns)

    result = Table(name or f"{table.name}_agg", schema)
    for key in order:
        positions = groups[key]
        out: Dict[str, Any] = {}
        for column_name, value in zip(group_by, key):
            out[table.schema.column(column_name).name] = value
        for spec in aggregates:
            out[spec.alias] = spec.compute_positions(table, positions)
        result.insert(out)
    return result


# ---------------------------------------------------------------------------
# Operator tree (used by the physical plans and by the SQL front end)
# ---------------------------------------------------------------------------
class Operator:
    """Base class for composable relational operators."""

    def execute(self) -> Table:
        """Produce the operator's output table."""
        raise NotImplementedError

    def children(self) -> List["Operator"]:
        """Child operators, if any."""
        return []

    def describe(self) -> str:
        """One-line human-readable description (used in explanations)."""
        raise NotImplementedError

    def explain_tree(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the operator tree."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain_tree(indent + 1))
        return "\n".join(lines)


@dataclass
class TableScan(Operator):
    """Leaf: scan an existing table."""

    table: Table

    def execute(self) -> Table:
        return self.table

    def describe(self) -> str:
        return f"Scan({self.table.name}, rows={len(self.table)})"


@dataclass
class Filter(Operator):
    """Selection node."""

    child: Operator
    predicate: Expression

    def execute(self) -> Table:
        return filter_rows(self.child.execute(), self.predicate)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.predicate.describe()})"


@dataclass
class Project(Operator):
    """Projection node."""

    child: Operator
    columns: List[str]

    def execute(self) -> Table:
        return project(self.child.execute(), self.columns)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass
class Extend(Operator):
    """Extended-projection node (adds one computed column)."""

    child: Operator
    column_name: str
    expression: Expression

    def execute(self) -> Table:
        return extend(self.child.execute(), self.column_name, self.expression)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Extend({self.column_name} := {self.expression.describe()})"


@dataclass
class HashJoin(Operator):
    """Equi-join node."""

    left: Operator
    right: Operator
    left_key: str
    right_key: str
    how: str = "inner"

    def execute(self) -> Table:
        return hash_join(self.left.execute(), self.right.execute(),
                         self.left_key, self.right_key, how=self.how)

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"HashJoin({self.left_key} = {self.right_key}, how={self.how})"


@dataclass
class Aggregate(Operator):
    """GROUP BY node."""

    child: Operator
    group_by: List[str]
    aggregates: List[AggregateSpec]

    def execute(self) -> Table:
        return aggregate(self.child.execute(), self.group_by, self.aggregates)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        aggs = ", ".join(f"{a.function}({a.column or '*'}) AS {a.alias}" for a in self.aggregates)
        by = ", ".join(self.group_by) if self.group_by else "<global>"
        return f"Aggregate(group_by=[{by}], aggs=[{aggs}])"


@dataclass
class Sort(Operator):
    """ORDER BY node."""

    child: Operator
    keys: List[Tuple[str, bool]]

    def execute(self) -> Table:
        return sort(self.child.execute(), self.keys)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(f"{c} {'DESC' if d else 'ASC'}" for c, d in self.keys)
        return f"Sort({keys})"


@dataclass
class Limit(Operator):
    """LIMIT node."""

    child: Operator
    count: int
    offset: int = 0

    def execute(self) -> Table:
        return limit(self.child.execute(), self.count, self.offset)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.count}, offset={self.offset})"


@dataclass
class Distinct(Operator):
    """DISTINCT node."""

    child: Operator
    columns: Optional[List[str]] = None

    def execute(self) -> Table:
        return distinct(self.child.execute(), self.columns)

    def children(self) -> List[Operator]:
        return [self.child]

    def describe(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return f"Distinct({cols})"
