"""Columnar store and copy-on-write overlay tests.

Covers the PR's acceptance points directly: the index staleness hole closed
by write-through row proxies, zero-copy forks (identity-verified shared
vectors), explicit column-granular blob sharing, ``lossy_columns``
propagation through forks and columnar round-trips, and on-disk round-trips
over every column type (legacy row-major files included).
"""

import json
import sys

import pytest

from repro.relational.indexes import HashIndex
from repro.relational.schema import Column, Schema
from repro.relational.storage import LossyBlobWarning, TableStorage
from repro.relational.table import Table
from repro.relational.types import DataType

MOVIES = Schema.of(("movie_id", "int"), ("title", "text"), ("year", "int"),
                   ("score", "float"))

ROWS = [
    {"movie_id": 1, "title": "Heat", "year": 1995, "score": 0.9},
    {"movie_id": 2, "title": "Ronin", "year": 1998, "score": 0.8},
    {"movie_id": 3, "title": "Drive", "year": 2011, "score": 0.7},
]


def movies(name="movies"):
    return Table(name, Schema(list(MOVIES.columns)), [dict(r) for r in ROWS])


# ---------------------------------------------------------------------------
# Index staleness: the hole the row-dict layout had
# ---------------------------------------------------------------------------
class TestIndexStaleness:
    def test_row_proxy_write_bumps_version(self):
        table = movies()
        before = table.non_append_version
        table.rows[0]["title"] = "Thief"
        assert table.non_append_version == before + 1

    def test_in_place_cell_write_refreshes_index(self):
        """Regression for the documented staleness hole: an in-place cell
        write through ``table.rows[i][col] = x`` used to leave a HashIndex
        serving stale positions because the row count never changed."""
        table = movies()
        index = HashIndex(table, "title")
        assert index.lookup_one("Heat")["movie_id"] == 1

        table.rows[0]["title"] = "Thief"

        assert index.lookup("Heat") == []
        assert index.lookup_one("Thief")["movie_id"] == 1

    def test_iterated_proxy_write_refreshes_index(self):
        table = movies()
        index = HashIndex(table, "year")
        for row in table:
            if row["movie_id"] == 2:
                row["year"] = 2000
        assert index.lookup("1998") == [] and index.lookup(1998) == []
        assert index.lookup_one(2000)["movie_id"] == 2

    def test_pure_appends_do_not_bump_and_index_extends(self):
        table = movies()
        index = HashIndex(table, "title")
        before = table.non_append_version
        table.insert({"movie_id": 4, "title": "Collateral", "year": 2004,
                      "score": 0.85})
        assert table.non_append_version == before
        assert index.lookup_one("Collateral")["movie_id"] == 4


# ---------------------------------------------------------------------------
# Copy-on-write forks
# ---------------------------------------------------------------------------
class TestCopyOnWrite:
    def test_fork_shares_every_column_vector(self):
        table = movies()
        fork = table.fork("overlay")
        for name in table.column_names():
            assert table.shares_column(fork, name)
            # Identity, not equality: the fork holds the *same* list object.
            assert table.column(name) is fork.column(name)

    def test_fork_is_o_columns_not_o_rows(self):
        table = movies()
        shared = sys.getsizeof(table.column("title"))
        fork = table.fork()
        # No per-row copy happened: the vector object (and hence its size)
        # is untouched, merely referenced from both stores.
        assert sys.getsizeof(fork.column("title")) == shared
        assert fork.column("title") is table.column("title")

    def test_write_copies_only_the_touched_column(self):
        table = movies()
        fork = table.fork()
        fork.set_column("score", [0.1, 0.2, 0.3])
        assert not table.shares_column(fork, "score")
        for untouched in ("movie_id", "title", "year"):
            assert table.shares_column(fork, untouched)
        assert table.column_values("score") == [0.9, 0.8, 0.7]
        assert fork.column_values("score") == [0.1, 0.2, 0.3]

    def test_isolation_child_writes_never_reach_parent(self):
        table = movies()
        snapshot = [dict(r) for r in table]
        fork = table.fork()
        fork.rows[0]["title"] = "Changed"
        fork.update_where(lambda r: r["year"] > 1996, {"score": 0.0})
        fork.delete_where(lambda r: r["movie_id"] == 3)
        fork.insert({"movie_id": 9, "title": "New", "year": 2020, "score": 0.5})
        assert [dict(r) for r in table] == snapshot

    def test_isolation_parent_writes_never_reach_child(self):
        table = movies()
        fork = table.fork()
        snapshot = [dict(r) for r in fork]
        table.rows[1]["year"] = 1900
        table.truncate()
        assert [dict(r) for r in fork] == snapshot

    def test_copy_alias_shares_blob_payloads_explicitly(self):
        schema = Schema([Column("movie_id", DataType.INTEGER),
                         Column("image", DataType.BLOB)])
        payload = bytes(range(256)) * 64
        table = Table("posters", schema,
                      [{"movie_id": 1, "image": payload},
                       {"movie_id": 2, "image": None}])
        clone = table.copy()
        assert table.shares_column(clone, "image")
        assert clone.column("image")[0] is payload
        clone.set_column("image", [None, None])
        assert not table.shares_column(clone, "image")
        assert table.column("image")[0] is payload


# ---------------------------------------------------------------------------
# lossy_columns propagation
# ---------------------------------------------------------------------------
class TestLossyPropagation:
    def _lossy_table(self):
        schema = Schema([Column("movie_id", DataType.INTEGER),
                         Column("image", DataType.BLOB)])
        table = Table("posters", schema,
                      [{"movie_id": 1, "image": b"\x00\x01"}])
        return Table.from_dict(table.to_dict())

    def test_restore_marks_blob_columns_lossy(self):
        restored = self._lossy_table()
        assert restored.lossy_columns == ["image"]
        assert restored.column_values("image") == [None]

    def test_fork_propagates_lossy_columns(self):
        restored = self._lossy_table()
        assert restored.fork().lossy_columns == ["image"]
        assert restored.copy().lossy_columns == ["image"]
        assert restored.head_table(1).lossy_columns == ["image"]

    def test_columnar_round_trip_carries_lossy_forward(self):
        """Once lossy, always marked: the blob values are already NULL on the
        second save, so only the explicit ``lossy_columns`` payload field can
        keep the flag alive."""
        restored = self._lossy_table()
        twice = Table.from_dict(restored.to_dict())
        assert twice.lossy_columns == ["image"]


# ---------------------------------------------------------------------------
# Storage round-trips
# ---------------------------------------------------------------------------
ALL_TYPES = Schema([
    Column("id", DataType.INTEGER),
    Column("name", DataType.TEXT),
    Column("rating", DataType.FLOAT),
    Column("active", DataType.BOOLEAN),
    Column("tags", DataType.JSON),
    Column("image", DataType.BLOB),
])

ALL_TYPE_ROWS = [
    {"id": 1, "name": "first", "rating": 0.5, "active": True,
     "tags": ["a", "b"], "image": b"\xde\xad"},
    {"id": 2, "name": "second", "rating": None, "active": False,
     "tags": {"k": [1, 2]}, "image": None},
    {"id": None, "name": "", "rating": -1.5, "active": None,
     "tags": None, "image": b""},
]


class TestStorageRoundTrip:
    def test_every_column_type_round_trips(self, tmp_path):
        storage = TableStorage(tmp_path)
        table = Table("everything", Schema(list(ALL_TYPES.columns)),
                      [dict(r) for r in ALL_TYPE_ROWS])
        storage.save(table)
        with pytest.warns(LossyBlobWarning):
            loaded = storage.load("everything")
        assert loaded.column_names() == table.column_names()
        assert len(loaded) == len(table)
        for name in ("id", "name", "rating", "active", "tags"):
            assert loaded.column_values(name) == table.column_values(name)
        # BLOBs are persisted as markers and restore as NULL, flagged.
        assert loaded.column_values("image") == [None, None, None]
        assert loaded.lossy_columns == ["image"]

    def test_saved_file_is_columnar(self, tmp_path):
        storage = TableStorage(tmp_path)
        path = storage.save(movies())
        payload = json.loads(path.read_text())
        assert payload["format"] == "columnar"
        assert payload["row_count"] == 3
        assert payload["columns"]["title"] == ["Heat", "Ronin", "Drive"]
        assert "rows" not in payload

    def test_row_major_payload_is_rejected(self, tmp_path):
        storage = TableStorage(tmp_path)
        table = movies()
        payload = table.to_dict()
        row_major = {key: payload[key] for key in ("name", "description", "schema")}
        row_major["rows"] = [dict(r) for r in table]
        with pytest.raises(ValueError, match="'movies'"):
            Table.from_dict(row_major)
        (tmp_path / "movies.json").write_text(json.dumps(row_major))
        with pytest.raises(ValueError, match="not a columnar payload"):
            storage.load("movies")

    def test_blobless_round_trip_emits_no_warning(self, tmp_path):
        import warnings

        storage = TableStorage(tmp_path)
        storage.save(movies())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = storage.load("movies")
        assert loaded.lossy_columns == []
