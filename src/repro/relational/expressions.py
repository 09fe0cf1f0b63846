"""Scalar expression AST evaluated column-at-a-time over tables.

The mini-SQL front end and the relational operators both use this AST.  It is
deliberately small: column references, literals, comparison/boolean/arithmetic
operators, NULL tests, LIKE / IN, and a handful of scalar functions.  Each node
has one evaluator, :meth:`Expression.evaluate_column`; ``evaluate(row)`` runs
it over a one-row table.  ``AND``/``OR`` keep short-circuit semantics with a
selection vector: the right operand is evaluated only over the rows the left
one leaves undecided.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ExpressionError
from repro.relational.columns import ColumnStore
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import compare_values


class Expression:
    """Base class for all scalar expressions."""

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Evaluate against one row mapping, as a one-row table.

        The values are wrapped as they are: no schema is inferred and
        nothing is validated.
        """
        store = ColumnStore()
        store.replace_all({name: [value] for name, value in row.items()}, 1)
        return self.evaluate_column(Table._adopt("row", Schema(), store))[0]

    def evaluate_column(self, table: Table) -> List[Any]:
        """Evaluate against every row of a columnar table, returning a vector.

        The returned list may be a live column vector — treat it as read-only.
        """
        raise NotImplementedError

    def referenced_columns(self) -> List[str]:
        """All column names referenced anywhere inside this expression."""
        return []

    def describe(self) -> str:
        """A SQL-ish rendering used in plan explanations."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate_column(self, table: Table) -> List[Any]:
        return [self.value] * len(table)

    def describe(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


@dataclass
class ColumnRef(Expression):
    """A reference to a column by name (case-insensitive lookup)."""

    name: str

    def evaluate_column(self, table: Table) -> List[Any]:
        store = table._store
        resolved = store.resolve(self.name)
        if resolved is None:
            raise ExpressionError(
                f"row has no column {self.name!r} (keys: {sorted(store.column_names())})")
        return store.column(resolved)

    def referenced_columns(self) -> List[str]:
        return [self.name]

    def describe(self) -> str:
        return self.name


_COMPARISONS: Dict[str, Callable[[Optional[int]], bool]] = {
    "=": lambda c: c == 0,
    "==": lambda c: c == 0,
    "!=": lambda c: c is not None and c != 0,
    "<>": lambda c: c is not None and c != 0,
    "<": lambda c: c == -1,
    "<=": lambda c: c in (-1, 0),
    ">": lambda c: c == 1,
    ">=": lambda c: c in (0, 1),
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b not in (0, 0.0) else None,
    "%": lambda a, b: a % b if b not in (0, 0.0) else None,
}


@dataclass
class BinaryOp(Expression):
    """Binary comparison, arithmetic, or boolean operator."""

    op: str
    left: Expression
    right: Expression

    def evaluate_column(self, table: Table) -> List[Any]:
        op = self.op.upper() if self.op.isalpha() else self.op
        if op in ("AND", "OR"):
            # Short-circuit with a selection vector: the right operand sees
            # only the rows the left one leaves undecided (True for AND,
            # False for OR), so it never runs, raises or acts on the others.
            out = [bool(v) for v in self.left.evaluate_column(table)]
            pending = op == "AND"
            undecided = [i for i, v in enumerate(out) if v == pending]
            if undecided:
                if len(undecided) < len(out):
                    table = Table._adopt(table.name, table.schema,
                                         table._store.gather(undecided))
                for i, v in zip(undecided, self.right.evaluate_column(table)):
                    out[i] = bool(v)
            return out
        left = self.left.evaluate_column(table)
        right = self.right.evaluate_column(table)
        if self.op in _COMPARISONS:
            check = _COMPARISONS[self.op]
            out: List[Any] = []
            for a, b in zip(left, right):
                if a is None or b is None:
                    out.append(False)
                    continue
                comparison = compare_values(a, b)
                if comparison is None:
                    comparison = compare_values(str(a), str(b))
                out.append(check(comparison))
            return out
        if self.op in _ARITHMETIC:
            fn = _ARITHMETIC[self.op]
            out = []
            for a, b in zip(left, right):
                if a is None or b is None:
                    out.append(None)
                    continue
                try:
                    out.append(fn(a, b))
                except TypeError as error:
                    raise ExpressionError(
                        f"cannot apply {self.op!r} to {type(a).__name__} "
                        f"and {type(b).__name__}") from error
            return out
        raise ExpressionError(f"unknown binary operator: {self.op!r}")

    def referenced_columns(self) -> List[str]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass
class UnaryOp(Expression):
    """NOT and unary minus."""

    op: str
    operand: Expression

    def evaluate_column(self, table: Table) -> List[Any]:
        values = self.operand.evaluate_column(table)
        op = self.op.upper()
        if op == "NOT":
            return [not bool(v) for v in values]
        if self.op == "-":
            return [-v if v is not None else None for v in values]
        raise ExpressionError(f"unknown unary operator: {self.op!r}")

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def describe(self) -> str:
        return f"({self.op} {self.operand.describe()})"


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate_column(self, table: Table) -> List[Any]:
        values = self.operand.evaluate_column(table)
        if self.negated:
            return [v is not None for v in values]
        return [v is None for v in values]

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def describe(self) -> str:
        return f"({self.operand.describe()} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards (case-insensitive)."""

    operand: Expression
    pattern: str
    negated: bool = False

    def _regex(self) -> "re.Pattern":
        parts = []
        for char in self.pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)

    def evaluate_column(self, table: Table) -> List[Any]:
        # The row path compiles the pattern per row; here it compiles once.
        regex = self._regex()
        values = self.operand.evaluate_column(table)
        out: List[Any] = []
        for value in values:
            if value is None:
                out.append(False)
                continue
            matched = bool(regex.match(str(value)))
            out.append((not matched) if self.negated else matched)
        return out

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def describe(self) -> str:
        return f"({self.operand.describe()} {'NOT ' if self.negated else ''}LIKE '{self.pattern}')"


@dataclass
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    options: List[Expression]
    negated: bool = False

    def evaluate_column(self, table: Table) -> List[Any]:
        values = self.operand.evaluate_column(table)
        member_vectors = [opt.evaluate_column(table) for opt in self.options]
        out: List[Any] = []
        for i, value in enumerate(values):
            found = any(compare_values(value, vec[i]) == 0 for vec in member_vectors)
            out.append((not found) if self.negated else found)
        return out

    def referenced_columns(self) -> List[str]:
        cols = self.operand.referenced_columns()
        for opt in self.options:
            cols.extend(opt.referenced_columns())
        return cols

    def describe(self) -> str:
        inner = ", ".join(o.describe() for o in self.options)
        return f"({self.operand.describe()} {'NOT ' if self.negated else ''}IN ({inner}))"


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": lambda x: abs(x) if x is not None else None,
    "round": lambda x, digits=0: round(x, int(digits)) if x is not None else None,
    "floor": lambda x: math.floor(x) if x is not None else None,
    "ceil": lambda x: math.ceil(x) if x is not None else None,
    "sqrt": lambda x: math.sqrt(x) if x is not None and x >= 0 else None,
    "length": lambda x: len(x) if x is not None else None,
    "lower": lambda x: str(x).lower() if x is not None else None,
    "upper": lambda x: str(x).upper() if x is not None else None,
    "trim": lambda x: str(x).strip() if x is not None else None,
    "concat": lambda *xs: "".join(str(x) for x in xs if x is not None),
    "coalesce": _fn_coalesce,
    "min2": lambda a, b: min(a, b) if a is not None and b is not None else None,
    "max2": lambda a, b: max(a, b) if a is not None and b is not None else None,
}


@dataclass
class FunctionCall(Expression):
    """A scalar function call (``round(score, 2)``)."""

    name: str
    args: List[Expression] = field(default_factory=list)

    def evaluate_column(self, table: Table) -> List[Any]:
        fn = _SCALAR_FUNCTIONS.get(self.name.lower())
        if fn is None:
            raise ExpressionError(f"unknown scalar function: {self.name!r}")
        arg_vectors = [arg.evaluate_column(table) for arg in self.args]
        out: List[Any] = []
        for values in zip(*arg_vectors) if arg_vectors else ((),) * len(table):
            try:
                out.append(fn(*values))
            except (TypeError, ValueError) as error:
                raise ExpressionError(
                    f"error evaluating {self.name}(...): {error}") from error
        return out

    def referenced_columns(self) -> List[str]:
        cols: List[str] = []
        for arg in self.args:
            cols.extend(arg.referenced_columns())
        return cols

    def describe(self) -> str:
        return f"{self.name}({', '.join(a.describe() for a in self.args)})"


@dataclass
class Lambda(Expression):
    """Wrap an arbitrary Python callable as an expression.

    For computations the SQL expression language does not cover;
    ``Table.where`` filters through one.  ``fn`` is applied to each row
    proxy in order, and only to the rows an enclosing ``AND``/``OR`` has
    not already decided.
    """

    fn: Callable[[Mapping[str, Any]], Any]
    label: str = "python_lambda"
    columns: List[str] = field(default_factory=list)

    def evaluate_column(self, table: Table) -> List[Any]:
        return [self.fn(row) for row in table.rows]

    def referenced_columns(self) -> List[str]:
        return list(self.columns)

    def describe(self) -> str:
        return f"<{self.label}>"


# ---------------------------------------------------------------------------
# Convenience constructors used heavily by generated code and tests.
# ---------------------------------------------------------------------------
def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(left: Expression, right: Expression) -> BinaryOp:
    """``left = right``."""
    return BinaryOp("=", left, right)


def and_(*terms: Expression) -> Expression:
    """Conjunction of one or more terms."""
    if not terms:
        return Literal(True)
    result = terms[0]
    for term in terms[1:]:
        result = BinaryOp("AND", result, term)
    return result


def or_(*terms: Expression) -> Expression:
    """Disjunction of one or more terms."""
    if not terms:
        return Literal(False)
    result = terms[0]
    for term in terms[1:]:
        result = BinaryOp("OR", result, term)
    return result
