"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel.lineage import LineageStore
from repro.errors import ExpressionError
from repro.models.embeddings import EmbeddingModel, cosine_similarity
from repro.models.lexicon import DEFAULT_LEXICON
from repro.relational.expressions import BinaryOp, InList, IsNull, UnaryOp, col, lit
from repro.relational.operators import (
    AggregateSpec,
    aggregate,
    distinct,
    filter_rows,
    hash_join,
    limit,
    project,
    sort,
    union_all,
)
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value, compare_values
from repro.utils.seed import SeededRNG, stable_hash
from repro.utils.text import estimate_tokens, tokenize, truncate

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
row_strategy = st.fixed_dictionaries({
    "movie_id": st.integers(min_value=1, max_value=50),
    "title": st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll"), whitelist_characters=" "),
                     min_size=1, max_size=12),
    "year": st.integers(min_value=1900, max_value=2030),
    "score": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0,
                                            allow_nan=False, allow_infinity=False)),
})

rows_strategy = st.lists(row_strategy, min_size=1, max_size=25)

MOVIE_SCHEMA = Schema.of(("movie_id", "int"), ("title", "text"), ("year", "int"),
                         ("score", "float"))


def make_table(rows, name="t"):
    return Table(name, Schema(list(MOVIE_SCHEMA.columns)), rows)


# ---------------------------------------------------------------------------
# Utility invariants
# ---------------------------------------------------------------------------
class TestUtilityProperties:
    @given(st.text(), st.text())
    def test_stable_hash_equality_follows_input_equality(self, a, b):
        if a == b:
            assert stable_hash(a) == stable_hash(b)

    @given(st.integers())
    def test_seeded_rng_reproducible(self, seed):
        assert SeededRNG(seed).random() == SeededRNG(seed).random()

    @given(st.text(max_size=200), st.integers(min_value=4, max_value=50))
    def test_truncate_never_exceeds_limit(self, text, limit):
        assert len(truncate(text, limit)) <= max(limit, len(text) if len(text) <= limit else limit)

    @given(st.text(max_size=200))
    def test_tokenize_produces_lowercase_word_chars(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.replace("'", "").isalnum()

    @given(st.text(max_size=400))
    def test_estimate_tokens_nonnegative_and_monotone(self, text):
        assert estimate_tokens(text) >= 0
        assert estimate_tokens(text + "abcd") >= estimate_tokens(text)


# ---------------------------------------------------------------------------
# Relational invariants
# ---------------------------------------------------------------------------
class TestRelationalProperties:
    @given(rows_strategy)
    def test_insert_preserves_row_count_and_schema(self, rows):
        table = make_table(rows)
        assert len(table) == len(rows)
        for row in table:
            assert set(row) == set(MOVIE_SCHEMA.column_names())

    @given(rows_strategy, st.integers(min_value=1900, max_value=2030))
    def test_filter_partitions_rows(self, rows, threshold):
        table = make_table(rows)
        predicate = BinaryOp(">", col("year"), lit(threshold))
        kept = filter_rows(table, predicate)
        complement = filter_rows(table, BinaryOp("<=", col("year"), lit(threshold)))
        assert len(kept) + len(complement) == len(table)
        assert all(row["year"] > threshold for row in kept)

    @given(rows_strategy)
    def test_projection_keeps_cardinality_and_drops_columns(self, rows):
        table = make_table(rows)
        projected = project(table, ["title", "year"])
        assert len(projected) == len(table)
        assert projected.column_names() == ["title", "year"]

    @given(rows_strategy)
    def test_sort_is_a_permutation_and_ordered(self, rows):
        table = make_table(rows)
        ordered = sort(table, [("year", False)])
        assert sorted(r["movie_id"] for r in ordered) == sorted(r["movie_id"] for r in table)
        years = [r["year"] for r in ordered]
        assert years == sorted(years)

    @given(rows_strategy, st.integers(min_value=0, max_value=30))
    def test_limit_bounds_output(self, rows, count):
        table = make_table(rows)
        assert len(limit(table, count)) == min(count, len(table))

    @given(rows_strategy)
    def test_distinct_idempotent(self, rows):
        table = make_table(rows)
        once = distinct(table)
        twice = distinct(once)
        assert len(once) == len(twice)
        assert len(once) <= len(table)

    @given(rows_strategy)
    def test_union_all_length_additive(self, rows):
        table = make_table(rows)
        assert len(union_all(table, table)) == 2 * len(table)

    @given(rows_strategy, rows_strategy)
    @settings(max_examples=25)
    def test_join_output_bounded_by_key_product(self, left_rows, right_rows):
        left = make_table(left_rows, "left_t")
        right = make_table(right_rows, "right_t")
        joined = hash_join(left, right, "movie_id", "movie_id")
        left_counts = {}
        for row in left:
            left_counts[row["movie_id"]] = left_counts.get(row["movie_id"], 0) + 1
        right_counts = {}
        for row in right:
            right_counts[row["movie_id"]] = right_counts.get(row["movie_id"], 0) + 1
        expected = sum(left_counts.get(key, 0) * right_counts.get(key, 0)
                       for key in set(left_counts) | set(right_counts))
        assert len(joined) == expected

    @given(rows_strategy)
    def test_aggregate_count_matches_group_sizes(self, rows):
        table = make_table(rows)
        grouped = aggregate(table, ["year"], [AggregateSpec("count", None, "n")])
        assert sum(row["n"] for row in grouped) == len(table)
        assert len(grouped) == len(table.distinct_values("year"))

    @given(rows_strategy)
    def test_serialization_roundtrip_preserves_rows(self, rows):
        table = make_table(rows)
        restored = Table.from_dict(table.to_dict())
        assert len(restored) == len(table)
        assert restored.column_names() == table.column_names()

    @given(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8), st.none()),
           st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8), st.none()))
    def test_compare_values_antisymmetry(self, a, b):
        forward = compare_values(a, b)
        backward = compare_values(b, a)
        if forward is None or backward is None:
            return
        assert forward == -backward

    @given(st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                     st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                     st.booleans(), st.text(max_size=10)))
    def test_coerce_text_always_str(self, value):
        assert isinstance(coerce_value(value, DataType.TEXT), str)


# ---------------------------------------------------------------------------
# Columnar store invariants
# ---------------------------------------------------------------------------
mutation_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), row_strategy),
        st.tuples(st.just("set_cell"), st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=1900, max_value=2030)),
        st.tuples(st.just("update"), st.integers(min_value=1900, max_value=2030),
                  st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("delete"), st.integers(min_value=1, max_value=50)),
        st.tuples(st.just("add_column"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("fork"), st.booleans()),
    ),
    max_size=20,
)


def _apply_mutations(table, model, operations):
    """Drive ``table`` and a plain list-of-dicts reference model through the
    same mutation sequence; returns (table, model, parent_snapshots)."""
    snapshots = []
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            row = dict(operation[1])
            table.insert(row)
            full = {name: row.get(name) for name in table.column_names()}
            model.append(full)
        elif kind == "set_cell" and model:
            index = operation[1] % len(model)
            table.rows[index]["year"] = operation[2]
            model[index]["year"] = operation[2]
        elif kind == "update":
            threshold, score = operation[1], operation[2]
            table.update_where(lambda r: r["year"] > threshold, {"score": score})
            for row in model:
                if row["year"] > threshold:
                    row["score"] = score
        elif kind == "delete":
            movie_id = operation[1]
            table.delete_where(lambda r: r["movie_id"] == movie_id)
            model[:] = [row for row in model if row["movie_id"] != movie_id]
        elif kind == "add_column":
            name = f"extra_{operation[1]}"
            if not table.schema.has_column(name):
                table.add_column(Column(name, DataType.INTEGER),
                                 default=operation[1])
                for row in model:
                    row[name] = operation[1]
        elif kind == "fork":
            snapshots.append((table, [dict(row) for row in table]))
            table = table.fork()
            model = [dict(row) for row in model]
    return table, model, snapshots


class TestColumnarProperties:
    @given(rows_strategy, mutation_strategy)
    @settings(max_examples=60)
    def test_row_api_matches_reference_model(self, rows, operations):
        """Randomized mutation sequences: the columnar table seen through the
        row API stays equivalent to a plain list-of-dicts reference model."""
        table = make_table(rows)
        model = [dict(row) for row in table]
        table, model, snapshots = _apply_mutations(table, model, operations)
        assert [dict(row) for row in table] == model
        # COW isolation: every pre-fork parent still holds its snapshot.
        for parent, snapshot in snapshots:
            assert [dict(row) for row in parent] == snapshot

    @given(rows_strategy, mutation_strategy)
    @settings(max_examples=60)
    def test_row_api_matches_column_api(self, rows, operations):
        """The row view and the column view of one table never disagree."""
        table = make_table(rows)
        table, _, _ = _apply_mutations(table, [dict(r) for r in table], operations)
        names = table.column_names()
        vectors = {name: table.column_values(name) for name in names}
        for i, row in enumerate(table):
            for name in names:
                assert row[name] == vectors[name][i]
        assert all(len(vector) == len(table) for vector in vectors.values())

    @given(rows_strategy, st.integers(min_value=1900, max_value=2030))
    @settings(max_examples=60)
    def test_fork_isolation_both_directions(self, rows, year):
        parent = make_table(rows)
        parent_snapshot = [dict(row) for row in parent]
        child = parent.fork()
        child.rows[0]["year"] = year
        child.update_where(lambda r: True, {"score": 0.5})
        assert [dict(row) for row in parent] == parent_snapshot
        child_snapshot = [dict(row) for row in child]
        parent.rows[0]["year"] = 1899
        parent.truncate()
        assert [dict(row) for row in child] == child_snapshot

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_untouched_fork_columns_stay_shared(self, rows):
        parent = make_table(rows)
        child = parent.fork()
        child.set_column("score", [None] * len(child))
        assert not parent.shares_column(child, "score")
        for name in ("movie_id", "title", "year"):
            assert parent.shares_column(child, name)
            assert parent.column(name) is child.column(name)


# ---------------------------------------------------------------------------
# Expression evaluation: one table at a time vs one row at a time
# ---------------------------------------------------------------------------
column_strategy = st.sampled_from(("movie_id", "title", "year", "score")).map(col)
leaf_strategy = st.one_of(
    column_strategy,
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-5, max_value=2030),
              st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
              st.text(alphabet="ab ", max_size=3)).map(lit),
    # Raises on some rows only: text + int, number + text; NULL + x is NULL.
    st.builds(BinaryOp, st.just("+"), column_strategy, st.sampled_from((1, "a")).map(lit)),
)


def _expression_nodes(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
                  children, children),
        st.builds(BinaryOp, st.sampled_from(("AND", "OR")), children, children),
        st.builds(BinaryOp, st.sampled_from(("AND", "OR")),
                  st.builds(IsNull, column_strategy, st.booleans()), children),
        st.builds(BinaryOp, st.sampled_from(("+", "-", "/", "%")), children, children),
        st.builds(UnaryOp, st.just("NOT"), children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(InList, children, st.lists(children, min_size=1, max_size=3),
                  st.booleans()),
    )


expression_strategy = st.recursive(leaf_strategy, _expression_nodes, max_leaves=6)


def _comparable(values):
    """NaN compares unequal to itself; arithmetic over overflowed floats makes it."""
    return ["nan" if isinstance(v, float) and math.isnan(v) else v for v in values]


class TestExpressionProperties:
    @given(rows_strategy, expression_strategy)
    @settings(max_examples=500, deadline=None)
    def test_column_evaluation_matches_row_evaluation(self, rows, expression):
        """``evaluate_column`` raises exactly when some row's ``evaluate``
        raises, and otherwise returns the per-row results; ``filter_rows``
        keeps exactly the truthy rows, in order.  AND/OR hand their right
        operand only the rows the left one leaves undecided, so an operand
        that raises on decided rows must not raise here either."""
        table = make_table(rows)
        row_dicts = [dict(row) for row in table]
        results, raised = [], False
        for row in row_dicts:
            try:
                results.append(expression.evaluate(row))
            except ExpressionError:
                raised = True
        if raised:
            with pytest.raises(ExpressionError):
                expression.evaluate_column(table)
            with pytest.raises(ExpressionError):
                filter_rows(table, expression)
            return
        assert _comparable(expression.evaluate_column(table)) == _comparable(results)
        kept = filter_rows(table, expression)
        assert [dict(row) for row in kept] == [
            row for row, value in zip(row_dicts, results) if value]


# ---------------------------------------------------------------------------
# Lineage invariants
# ---------------------------------------------------------------------------
class TestLineageProperties:
    @given(st.lists(st.sampled_from(["row", "table", "source"]), min_size=1, max_size=40))
    def test_lids_unique_and_parents_precede_children(self, operations):
        store = LineageStore()
        known = []
        for op in operations:
            if op == "source" or not known:
                known.append(store.record_source(f"file://{len(known)}"))
            elif op == "row":
                known.append(store.record_row("f", 1, known[-1]))
            else:
                known.append(store.record_table("g", 1, known[-2:]))
        lids = [entry.lid for entry in store.entries]
        assert len(set(known)) == len(known)
        for entry in store.entries:
            if entry.parent_lid is not None:
                assert entry.parent_lid < entry.lid

    @given(st.integers(min_value=2, max_value=30))
    def test_trace_covers_whole_chain(self, depth):
        store = LineageStore()
        current = store.record_source("file://root")
        chain = [current]
        for _ in range(depth):
            current = store.record_row("step", 1, current)
            chain.append(current)
        trace = store.trace(current, max_depth=depth + 5)
        assert {entry.lid for entry in trace} == set(chain)
        assert store.ancestors_of(current, max_depth=depth + 5) == list(reversed(chain[:-1]))


# ---------------------------------------------------------------------------
# Embedding invariants
# ---------------------------------------------------------------------------
class TestEmbeddingProperties:
    model = EmbeddingModel()

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_self_similarity_is_one(self, word):
        vector = self.model.embed_word(word)
        assert not vector.any() or abs(cosine_similarity(vector, vector) - 1.0) < 1e-9

    @given(st.lists(st.sampled_from(sorted(DEFAULT_LEXICON.terms_for("excitement"))[:20]),
                    min_size=1, max_size=6),
           st.lists(st.sampled_from(["garden", "tea", "dinner", "walk", "office"]),
                    min_size=0, max_size=6))
    @settings(max_examples=40)
    def test_match_fraction_bounds_and_monotonicity(self, exciting_terms, calm_terms):
        keywords = sorted(DEFAULT_LEXICON.terms_for("excitement"))[:15]
        mixed = exciting_terms + calm_terms
        score_mixed = self.model.match_fraction(keywords, mixed)
        score_exciting = self.model.match_fraction(keywords, exciting_terms)
        assert 0.0 <= score_mixed <= 1.0
        assert score_exciting >= score_mixed - 1e-9
