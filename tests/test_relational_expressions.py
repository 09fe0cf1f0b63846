"""Unit tests for the scalar expression AST."""

import pytest

from repro.errors import ExpressionError
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Lambda,
    Like,
    Literal,
    UnaryOp,
    and_,
    col,
    eq,
    lit,
    or_,
)
from repro.relational.operators import filter_rows
from repro.relational.schema import Schema
from repro.relational.table import Table

ROW = {"title": "Guilty by Suspicion", "year": 1991, "score": 0.99, "missing": None}


class TestBasics:
    def test_literal(self):
        assert lit(5).evaluate(ROW) == 5
        assert lit("a'b").describe() == "'a''b'"

    def test_column_ref_case_insensitive(self):
        assert ColumnRef("YEAR").evaluate(ROW) == 1991

    def test_column_ref_unknown_raises(self):
        with pytest.raises(ExpressionError):
            ColumnRef("bogus").evaluate(ROW)

    def test_referenced_columns(self):
        expression = and_(eq(col("year"), lit(1991)), BinaryOp(">", col("score"), lit(0.5)))
        assert set(expression.referenced_columns()) == {"year", "score"}


class TestComparisons:
    @pytest.mark.parametrize("op,left,right,expected", [
        ("=", 1991, 1991, True),
        ("!=", 1991, 1990, True),
        ("<>", 1991, 1991, False),
        ("<", 1, 2, True),
        ("<=", 2, 2, True),
        (">", 3, 2, True),
        (">=", 1, 2, False),
    ])
    def test_operators(self, op, left, right, expected):
        assert BinaryOp(op, lit(left), lit(right)).evaluate({}) is expected

    def test_null_comparison_is_false(self):
        assert BinaryOp(">", col("missing"), lit(1)).evaluate(ROW) is False

    def test_string_number_comparison_falls_back_to_text(self):
        assert BinaryOp("=", lit("5"), lit(5)).evaluate({}) in (True, False)


class TestBooleanAndArithmetic:
    def test_and_or_not(self):
        expression = and_(lit(True), or_(lit(False), lit(True)))
        assert expression.evaluate({}) is True
        assert UnaryOp("NOT", lit(True)).evaluate({}) is False

    def test_arithmetic(self):
        assert BinaryOp("+", col("year"), lit(9)).evaluate(ROW) == 2000
        assert BinaryOp("*", lit(2), lit(3)).evaluate({}) == 6
        assert BinaryOp("/", lit(7), lit(2)).evaluate({}) == 3.5
        assert BinaryOp("%", lit(7), lit(2)).evaluate({}) == 1

    def test_division_by_zero_is_null(self):
        assert BinaryOp("/", lit(1), lit(0)).evaluate({}) is None

    def test_arithmetic_with_null_is_null(self):
        assert BinaryOp("+", col("missing"), lit(1)).evaluate(ROW) is None

    def test_bad_operand_types_raise(self):
        with pytest.raises(ExpressionError):
            BinaryOp("+", lit("a"), lit(1)).evaluate({})

    def test_unknown_operator(self):
        with pytest.raises(ExpressionError):
            BinaryOp("**", lit(1), lit(2)).evaluate({})

    def test_unary_minus(self):
        assert UnaryOp("-", lit(3)).evaluate({}) == -3


class TestPredicates:
    def test_is_null(self):
        assert IsNull(col("missing")).evaluate(ROW) is True
        assert IsNull(col("year"), negated=True).evaluate(ROW) is True

    def test_like_wildcards(self):
        assert Like(col("title"), "%suspicion%").evaluate(ROW) is True
        assert Like(col("title"), "guilty _y%").evaluate(ROW) is True
        assert Like(col("title"), "clean%").evaluate(ROW) is False
        assert Like(col("title"), "%sober%", negated=True).evaluate(ROW) is True

    def test_like_escapes_regex_chars(self):
        assert Like(lit("a.b"), "a.b").evaluate({}) is True
        assert Like(lit("axb"), "a.b").evaluate({}) is False

    def test_like_null_is_false(self):
        assert Like(col("missing"), "%x%").evaluate(ROW) is False

    def test_in_list(self):
        assert InList(col("year"), [lit(1988), lit(1991)]).evaluate(ROW) is True
        assert InList(col("year"), [lit(1950)], negated=True).evaluate(ROW) is True


class TestFunctionsAndLambda:
    def test_scalar_functions(self):
        assert FunctionCall("round", [col("score"), lit(1)]).evaluate(ROW) == 1.0
        assert FunctionCall("upper", [col("title")]).evaluate(ROW).startswith("GUILTY")
        assert FunctionCall("length", [col("title")]).evaluate(ROW) == len(ROW["title"])
        assert FunctionCall("coalesce", [col("missing"), lit(7)]).evaluate(ROW) == 7
        assert FunctionCall("concat", [lit("a"), lit("b")]).evaluate({}) == "ab"

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            FunctionCall("sin", [lit(1)]).evaluate({})

    def test_lambda_expression(self):
        expression = Lambda(lambda row: row["score"] * 100, label="pct", columns=["score"])
        assert expression.evaluate(ROW) == 99.0
        assert expression.referenced_columns() == ["score"]
        assert "pct" in expression.describe()

    def test_describe_is_sqlish(self):
        expression = and_(eq(col("year"), lit(1991)), Like(col("title"), "%a%"))
        text = expression.describe()
        assert "year = 1991" in text and "LIKE" in text


class TestShortCircuit:
    """AND/OR evaluate their right operand only over undecided rows."""

    @staticmethod
    def table():
        rows = [{"id": 1, "title": None}, {"id": 2, "title": "x"},
                {"id": 3, "title": None}, {"id": 4, "title": "y"}]
        return Table("t", Schema.of(("id", "int"), ("title", "text")), rows)

    @staticmethod
    def title_plus_one_is_one():
        # Raises on every non-NULL title: 'x' + 1 is not defined.
        return BinaryOp("=", BinaryOp("+", col("title"), lit(1)), lit(1))

    def test_and_skips_rows_the_left_operand_rejects(self):
        expression = and_(IsNull(col("title")), self.title_plus_one_is_one())
        assert filter_rows(self.table(), expression).rows == []
        assert expression.evaluate({"title": "x"}) is False

    def test_or_skips_rows_the_left_operand_accepts(self):
        expression = or_(IsNull(col("title"), negated=True), self.title_plus_one_is_one())
        kept = filter_rows(self.table(), expression)
        assert kept.column_values("id") == [2, 4]
        assert expression.evaluate({"title": "x"}) is True

    def test_right_operand_sees_only_undecided_rows(self):
        seen = []

        def log(row):
            seen.append(row["id"])
            return row["id"] > 2

        kept = filter_rows(self.table(), and_(IsNull(col("title"), negated=True),
                                              Lambda(log)))
        assert seen == [2, 4]
        assert kept.column_values("id") == [4]

        seen.clear()
        kept = filter_rows(self.table(), or_(IsNull(col("title"), negated=True),
                                             Lambda(log)))
        assert seen == [1, 3]
        assert kept.column_values("id") == [2, 3, 4]

    def test_nested_selection_vectors_compose(self):
        seen = []

        def log(row):
            seen.append(row["id"])
            return True

        expression = and_(BinaryOp(">", col("id"), lit(1)),
                          IsNull(col("title"), negated=True), Lambda(log))
        assert filter_rows(self.table(), expression).column_values("id") == [2, 4]
        assert seen == [2, 4]
