"""Unit tests for the row-oriented Table."""

import pytest

from repro.errors import SchemaError, UnknownColumnError
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture()
def movies():
    return Table.from_rows("movies", [
        {"movie_id": 1, "title": "Guilty by Suspicion", "year": 1991, "score": 0.99},
        {"movie_id": 2, "title": "Clean and Sober", "year": 1988, "score": 0.97},
        {"movie_id": 3, "title": "Old Film", "year": 1950, "score": 0.20},
        {"movie_id": 4, "title": "No Score", "year": 2005, "score": None},
    ])


class TestConstruction:
    def test_from_rows_infers_schema(self, movies):
        assert movies.schema.column("year").data_type is DataType.INTEGER
        assert len(movies) == 4

    def test_from_rows_empty_without_schema_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows("empty", [])

    def test_empty_table_name_rejected(self):
        with pytest.raises(SchemaError):
            Table("", Schema.of(("a", "int")))

    def test_copy_is_independent(self, movies):
        clone = movies.copy("clone")
        clone.rows[0]["title"] = "changed"
        assert movies[0]["title"] == "Guilty by Suspicion"
        assert clone.name == "clone"


class TestMutation:
    def test_insert_validates_and_coerces(self, movies):
        stored = movies.insert({"movie_id": "5", "title": "New", "year": "2020", "score": 0.5})
        assert stored["movie_id"] == 5 and stored["year"] == 2020

    def test_insert_unknown_column_rejected(self, movies):
        with pytest.raises(SchemaError):
            movies.insert({"movie_id": 6, "director": "someone"})

    def test_delete_where(self, movies):
        removed = movies.delete_where(lambda row: row["year"] < 1980)
        assert removed == 1 and len(movies) == 3

    def test_update_where(self, movies):
        updated = movies.update_where(lambda row: row["movie_id"] == 2, {"score": 0.5})
        assert updated == 1
        assert movies.where(lambda r: r["movie_id"] == 2)[0]["score"] == 0.5

    def test_update_unknown_column(self, movies):
        with pytest.raises(UnknownColumnError):
            movies.update_where(lambda row: True, {"bogus": 1})

    def test_add_column_with_compute(self, movies):
        movies.add_column(Column("decade", DataType.INTEGER),
                          compute=lambda row: (row["year"] // 10) * 10)
        assert movies[0]["decade"] == 1990

    def test_add_existing_column_rejected(self, movies):
        with pytest.raises(SchemaError):
            movies.add_column(Column("year", DataType.INTEGER))

    def test_truncate(self, movies):
        movies.truncate()
        assert len(movies) == 0


class TestQueries:
    def test_head_returns_copies(self, movies):
        head = movies.head(2)
        head[0]["title"] = "mutated"
        assert movies[0]["title"] == "Guilty by Suspicion"

    def test_column_values_and_distinct(self, movies):
        assert movies.column_values("year") == [1991, 1988, 1950, 2005]
        movies.insert({"movie_id": 5, "title": "Dup", "year": 1991, "score": 0.1})
        assert movies.distinct_values("year") == [1991, 1988, 1950, 2005]

    def test_where(self, movies):
        recent = movies.where(lambda row: row["year"] > 1980)
        assert len(recent) == 3

    def test_order_by_with_nulls_first(self, movies):
        ordered = movies.order_by("score")
        assert ordered[0]["score"] is None
        assert ordered[-1]["score"] == 0.99

    def test_order_by_descending(self, movies):
        ordered = movies.order_by("year", descending=True)
        assert [r["year"] for r in ordered][:2] == [2005, 1991]

    def test_select_columns(self, movies):
        projected = movies.select_columns(["title", "year"])
        assert projected.column_names() == ["title", "year"]
        assert len(projected) == len(movies)

    def test_statistics(self, movies):
        assert movies.null_fraction("score") == 0.25
        assert movies.cardinality("movie_id") == 4


class TestSerialization:
    def test_roundtrip(self, movies):
        restored = Table.from_dict(movies.to_dict())
        assert restored.column_names() == movies.column_names()
        assert len(restored) == len(movies)
        assert restored[0]["title"] == "Guilty by Suspicion"

    def test_blob_columns_become_markers(self):
        table = Table("blobs", Schema([Column("id", DataType.INTEGER),
                                       Column("payload", DataType.BLOB)]))
        table.insert({"id": 1, "payload": object()})
        payload = table.to_dict()["columns"]["payload"][0]
        assert payload["__blob__"] is True
        restored = Table.from_dict(table.to_dict())
        assert restored[0]["payload"] is None

    def test_pretty_renders_all_columns(self, movies):
        rendered = movies.pretty(limit=2)
        assert "title" in rendered and "Guilty by Suspicion" in rendered
        assert "more rows" in rendered
