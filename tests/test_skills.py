"""Tests for the durable FAO skill store (persistence, retrieval, revalidation)."""

from __future__ import annotations

import json
import shutil
import types

import pytest

from repro import KathDBConfig, build_movie_corpus
from repro.api.request import QueryOptions, QueryRequest
from repro.api.service import KathDBService
from repro.cli import parse_skill_store
from repro.data.workloads import FLAGSHIP_CLARIFICATION
from repro.errors import KathDBError
from repro.fao.profiler import ProfileResult
from repro.interaction.user import ScriptedUser
from repro.optimizer.profile_cache import ProfileCache
from repro.relational.storage import TableStorage
from repro.relational.table import Table
from repro.skills.backends import (
    FileBackend,
    MemoryBackend,
    SQLiteBackend,
    backend_from_spec,
)
from repro.skills.record import (
    STATUS_DEMOTED,
    SkillRecord,
    node_fingerprint,
    schema_fingerprint,
    strip_patch_comments,
)
from repro.skills.retrieval import RetrievalIndex, record_key
from repro.skills.store import SkillStore
from repro.skills.validate import RevalidationOutcome
from repro.utils.io import atomic_write_text

SKILL_QUERY = "Rank every film by how exciting its plot is."
SKILL_CORPUS_SIZE = 10


# -- helpers ---------------------------------------------------------------------------

def run_skill_service(store_path, corpus_size=SKILL_CORPUS_SIZE, corpus_seed=7,
                      clarification=FLAGSHIP_CLARIFICATION):
    """One service restart against a durable store: load, query, shut down."""
    config = KathDBConfig(seed=7, monitor_enabled=False,
                          enable_skill_store=True,
                          skill_store_backend="file",
                          skill_store_path=store_path)
    service = KathDBService(config)
    service.load_corpus(build_movie_corpus(size=corpus_size, seed=corpus_seed))
    user = ScriptedUser({"exciting": clarification})
    response = service.query(QueryRequest(nl_query=SKILL_QUERY, user=user,
                                          options=QueryOptions(use_prepared=False)))
    stats = service.skill_stats()
    service.shutdown()
    return response, stats


def result_rows(response):
    """Result rows with the run-specific lineage ids stripped."""
    return [{k: v for k, v in row.items() if k != "lid"}
            for row in response.result.final_table.rows]


def make_record(fingerprint="feedfacefeedface", family="semantic_map",
                description="score each plot by how exciting it is",
                status="active") -> SkillRecord:
    return SkillRecord(
        fingerprint=fingerprint, family=family, variant="flagship",
        node={"name": "excitement", "description": description,
              "inputs": ["plots"], "output": "scored",
              "dependency_pattern": "1:1", "parameters": {}},
        function_parameters={}, source_text="def impl(rows):\n    return rows\n",
        schema_fingerprint="00" * 8, lexicon_fingerprint="11" * 8,
        profile={"tokens_per_row": 5.0, "runtime_per_row_s": 0.001,
                 "success_rate": 1.0, "samples": 1},
        verdict={"ok": True, "checked_semantics": True}, status=status)


@pytest.fixture(scope="module")
def cold_store(tmp_path_factory):
    """A populated file-backed store plus the cold run's response and stats."""
    store_path = tmp_path_factory.mktemp("skills") / "store"
    response, stats = run_skill_service(store_path)
    response.raise_for_error()
    return {"path": store_path, "rows": result_rows(response),
            "stats": stats, "optimize_tokens": response.optimize_tokens,
            "response": response}


def clone_store(cold_store, tmp_path):
    """A private copy of the cold store so tests cannot pollute each other."""
    target = tmp_path / "store"
    shutil.copytree(cold_store["path"], target)
    return target


# -- atomic writes (satellite a) -------------------------------------------------------

class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failure_leaves_original_and_no_temp(self, tmp_path):
        target = tmp_path / "file.json"
        atomic_write_text(target, "original")
        with pytest.raises(TypeError):
            atomic_write_text(target, object())  # type: ignore[arg-type]
        assert target.read_text() == "original"
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_table_storage_save_is_atomic(self, tmp_path):
        storage = TableStorage(tmp_path)
        table = Table.from_rows("movies", [{"movie_id": 1, "title": "A"}])
        path = storage.save(table)
        assert storage.load("movies").rows == table.rows
        assert path.exists()
        assert list(tmp_path.glob(".*.tmp")) == []


# -- persistence backends --------------------------------------------------------------

class TestBackends:
    @pytest.fixture(params=["memory", "file", "sqlite"])
    def backend(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryBackend()
        elif request.param == "file":
            yield FileBackend(tmp_path / "store")
        else:
            backend = SQLiteBackend(tmp_path / "skills.db")
            yield backend
            backend.close()

    def test_roundtrip(self, backend):
        assert backend.get("skill:abc") is None
        backend.put("skill:abc", {"value": 1})
        backend.put("skill:abc", {"value": 2})
        assert backend.get("skill:abc") == {"value": 2}
        assert backend.keys() == ["skill:abc"]
        assert backend.delete("skill:abc") is True
        assert backend.delete("skill:abc") is False
        assert backend.keys() == []

    def test_values_are_copies(self, backend):
        original = {"nested": {"n": 1}}
        backend.put("k", original)
        original["nested"]["n"] = 99
        assert backend.get("k") == {"nested": {"n": 1}}

    def test_durability_across_reopen(self, tmp_path):
        for fresh in (FileBackend(tmp_path / "f"), SQLiteBackend(tmp_path / "s.db")):
            fresh.put("skill:deadbeef", {"x": 1})
            fresh.close()
        assert FileBackend(tmp_path / "f").get("skill:deadbeef") == {"x": 1}
        reopened = SQLiteBackend(tmp_path / "s.db")
        assert reopened.get("skill:deadbeef") == {"x": 1}
        reopened.close()

    def test_file_backend_sanitizes_keys_reversibly(self, tmp_path):
        backend = FileBackend(tmp_path)
        backend.put("skill:a/b c", {"x": 1})
        # The filename is sanitized but the original key survives in the
        # envelope, so keys() reports it verbatim.
        assert backend.keys() == ["skill:a/b c"]
        (path,) = (tmp_path / "records").glob("*.skill")
        assert ":" not in path.name and "/" not in path.stem

    def test_file_backend_uses_skill_extension(self, tmp_path):
        # Record files must not be *.json: the legacy workspace test counts
        # json metadata sidecars against py.txt sources in the same tree.
        backend = FileBackend(tmp_path)
        backend.put("skill:abc", {"x": 1})
        assert list(tmp_path.rglob("*.json")) == []

    def test_backend_from_spec(self, tmp_path):
        assert backend_from_spec("memory").kind == "memory"
        assert backend_from_spec("file", tmp_path / "d").kind == "file"
        sqlite_backend = backend_from_spec("sqlite", tmp_path / "x.db")
        assert sqlite_backend.kind == "sqlite"
        sqlite_backend.close()
        with pytest.raises(ValueError):
            backend_from_spec("file")
        with pytest.raises(ValueError):
            backend_from_spec("bogus", tmp_path / "d")


# -- signatures and records ------------------------------------------------------------

class TestSignatures:
    def test_schema_fingerprint_ignores_rows(self):
        a = Table.from_rows("plots", [{"movie_id": 1, "plot": "x"}])
        b = Table.from_rows("plots", [{"movie_id": 2, "plot": "y"},
                                      {"movie_id": 3, "plot": "z"}])
        assert schema_fingerprint({"plots": a}) == schema_fingerprint({"plots": b})

    def test_schema_fingerprint_sees_columns(self):
        a = Table.from_rows("plots", [{"movie_id": 1, "plot": "x"}])
        b = Table.from_rows("plots", [{"movie_id": 1, "summary": "x"}])
        assert schema_fingerprint({"plots": a}) != schema_fingerprint({"plots": b})

    def test_node_fingerprint_sensitive_to_lexicon(self):
        record = make_record()
        node = types.SimpleNamespace(
            name="excitement", description="score each plot",
            inputs=("plots",), output="scored", dependency_pattern="1:1",
            parameters={})
        base = node_fingerprint("semantic_map", node, "aa" * 8, "bb" * 8)
        assert node_fingerprint("semantic_map", node, "aa" * 8, "cc" * 8) != base
        assert node_fingerprint("semantic_map", node, "dd" * 8, "bb" * 8) != base
        assert record.fingerprint != base  # sanity: helpers are independent

    def test_strip_patch_comments(self):
        source = "def f():\n    return 1\n# patched: guard nulls\n# patched: again\n"
        assert strip_patch_comments(source) == "def f():\n    return 1\n"
        assert strip_patch_comments("") == ""

    def test_record_roundtrip_ignores_unknown_fields(self):
        record = make_record()
        payload = record.to_dict()
        payload["future_field"] = "ignored"
        restored = SkillRecord.from_dict(payload)
        assert restored == record
        assert "semantic_map" in restored.describe()


# -- retrieval -------------------------------------------------------------------------

class TestRetrieval:
    def test_exact_skips_demoted(self):
        backend = MemoryBackend()
        index = RetrievalIndex(backend)
        record = make_record(status=STATUS_DEMOTED)
        backend.put(record_key(record.fingerprint), record.to_dict())
        assert index.exact(record.fingerprint) is None
        assert index.load(record.fingerprint).status == STATUS_DEMOTED

    def test_near_match_thresholds(self, fresh_models):
        backend = MemoryBackend()
        record = make_record()
        backend.put(record_key(record.fingerprint), record.to_dict())
        index = RetrievalIndex(backend, threshold=0.9)
        # Identical signature text embeds identically: similarity 1.0.
        found = index.near(record.family, record.signature_text, fresh_models)
        assert found is not None and found[1] == pytest.approx(1.0)
        # Other families are never candidates, however similar the text.
        assert index.near("aggregate", record.signature_text, fresh_models) is None
        # An unrelated predicate falls below the threshold.
        assert index.near(record.family,
                          "semantic_join match directors to award lists",
                          fresh_models) is None


# -- store-level behaviour -------------------------------------------------------------

class TestSkillStore:
    def test_production_failure_demotes_record(self):
        store = SkillStore()
        record = make_record()
        store.backend.put(record_key(record.fingerprint), record.to_dict())
        function = types.SimpleNamespace(skill_fingerprint=record.fingerprint)
        assert store.record_production_failure(function, "runtime blew up") is True
        stored = store.retrieval.load(record.fingerprint)
        assert stored.status == STATUS_DEMOTED
        assert "runtime blew up" in stored.last_error
        assert store.stats()["demotions"] == 1
        # Demotion is idempotent; unstamped functions are ignored.
        assert store.record_production_failure(function, "again") is False
        assert store.record_production_failure(types.SimpleNamespace(), "x") is False

    def test_len_counts_active_records_only(self):
        store = SkillStore()
        active = make_record(fingerprint="aa" * 8)
        demoted = make_record(fingerprint="bb" * 8, status=STATUS_DEMOTED)
        store.backend.put(record_key(active.fingerprint), active.to_dict())
        store.backend.put(record_key(demoted.fingerprint), demoted.to_dict())
        assert len(store) == 1
        assert "skill store" in store.describe()

    def test_profile_cache_shares_backend(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        cache = ProfileCache(backend=backend)
        cache.record("semantic_map", "flagship",
                     ProfileResult(function_name="f", variant="flagship",
                                   success=True, runtime_s=0.2, tokens_used=40,
                                   rows_in=4, rows_out=4))
        # A fresh cache over the same backend sees the entry (write-through).
        reloaded = ProfileCache(backend=FileBackend(tmp_path / "store"))
        entry = reloaded.get("semantic_map", "flagship")
        assert entry is not None and entry.tokens_per_row == pytest.approx(10.0)


# -- configuration and CLI -------------------------------------------------------------

class TestConfiguration:
    def test_path_promotes_memory_backend_to_file(self, tmp_path):
        config = KathDBConfig(enable_skill_store=True,
                              skill_store_path=tmp_path / "skills")
        assert config.skill_store_backend == "file"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KathDBError):
            KathDBConfig(skill_store_backend="bogus")

    def test_durable_backend_requires_path(self):
        with pytest.raises(KathDBError):
            KathDBConfig(enable_skill_store=True, skill_store_backend="sqlite")

    def test_threshold_bounds(self):
        with pytest.raises(KathDBError):
            KathDBConfig(skill_retrieval_threshold=0.0)
        with pytest.raises(KathDBError):
            KathDBConfig(skill_retrieval_threshold=1.5)

    def test_cli_spec_parsing(self):
        assert parse_skill_store("memory") == {"enable_skill_store": True,
                                               "skill_store_backend": "memory"}
        parsed = parse_skill_store("sqlite:/tmp/s.db")
        assert parsed["skill_store_backend"] == "sqlite"
        assert parsed["skill_store_path"] == "/tmp/s.db"
        with pytest.raises(ValueError):
            parse_skill_store("file")          # durable backend without a path
        with pytest.raises(ValueError):
            parse_skill_store("bogus:/tmp/x")  # unknown backend

    def test_service_without_store(self):
        service = KathDBService(KathDBConfig(seed=7))
        assert service.skill_store is None
        assert service.skill_stats() is None
        service.shutdown()


# -- end-to-end: warm restarts, poisoning, lexicon drift -------------------------------

class TestDurableReuse:
    def test_cold_run_stores_skills(self, cold_store):
        stats = cold_store["stats"]
        assert stats["stores"] > 0
        assert stats["misses"] == stats["stores"]
        assert stats["exact_hits"] == 0
        records = list((cold_store["path"] / "records").glob("*.skill"))
        assert len(records) == stats["stores"]

    def test_response_surfaces_store_metadata(self, cold_store):
        response = cold_store["response"]
        assert response.skill_store_stats == cold_store["stats"]
        assert 0 < response.optimize_tokens <= response.prepare_tokens

    def test_sources_persist_through_store(self, cold_store):
        # Satellite (b): with no workspace configured, the store's file
        # backend is the single persistence path for function sources.
        sources = list(cold_store["path"].rglob("*.py.txt"))
        assert len(sources) >= cold_store["stats"]["stores"]

    def test_warm_restart_reuses_skills(self, cold_store, tmp_path):
        store = clone_store(cold_store, tmp_path)
        response, stats = run_skill_service(store)
        response.raise_for_error()
        assert stats["exact_hits"] == cold_store["stats"]["stores"]
        assert stats["misses"] == 0 and stats["stores"] == 0
        assert result_rows(response) == cold_store["rows"]
        # The acceptance bar: a warm prepare costs <= 10% of cold codegen+profiling.
        assert response.optimize_tokens <= 0.10 * cold_store["optimize_tokens"]

    def test_poisoned_record_demoted_and_regenerated(self, cold_store, tmp_path):
        # Satellite (c): stored code that no longer parses must be demoted and
        # silently regenerated, never surface an error.
        store = clone_store(cold_store, tmp_path)
        for path in (store / "records").glob("*.skill"):
            envelope = json.loads(path.read_text())
            envelope["record"]["source_text"] = "def broken(:\n"
            path.write_text(json.dumps(envelope))
        response, stats = run_skill_service(store)
        response.raise_for_error()
        assert stats["demotions"] == cold_store["stats"]["stores"]
        assert stats["exact_hits"] == 0
        assert stats["stores"] > 0  # regenerated and re-stored
        assert result_rows(response) == cold_store["rows"]

    def test_changed_lexicon_misses_exact(self, cold_store, tmp_path):
        # Satellite (c): the same query under a different clarification mutates
        # the lexicon, so the stored fingerprints no longer match exactly.
        store = clone_store(cold_store, tmp_path)
        response, stats = run_skill_service(
            store, clarification="exciting means the plot has courtroom scenes")
        response.raise_for_error()
        assert stats["exact_hits"] == 0
        assert stats["misses"] + stats["near_hits"] > 0

    def test_revalidation_failure_falls_back_to_codegen(self, cold_store, tmp_path,
                                                        monkeypatch):
        # Satellite (c): a candidate that fails revalidation mid-prepare must
        # fall through to fresh codegen without failing the query.
        from repro.skills.validate import RevalidationHarness

        def always_fail(self, record, function, node, inputs, context, profiler,
                        critic, monitor=None, exact=True, sample_size=None):
            return RevalidationOutcome(ok=False, reason="forced failure")

        monkeypatch.setattr(RevalidationHarness, "revalidate", always_fail)
        store = clone_store(cold_store, tmp_path)
        response, stats = run_skill_service(store)
        response.raise_for_error()
        assert stats["revalidation_failures"] > 0
        assert stats["exact_hits"] == 0 and stats["near_hits"] == 0
        assert stats["stores"] > 0
        assert result_rows(response) == cold_store["rows"]

    def test_cross_corpus_reuse(self, cold_store, tmp_path):
        # Schema fingerprints exclude row contents, so a different corpus with
        # the same relational shape still reuses the stored skills.
        store = clone_store(cold_store, tmp_path)
        response, stats = run_skill_service(store, corpus_size=SKILL_CORPUS_SIZE + 4,
                                            corpus_seed=11)
        response.raise_for_error()
        assert stats["exact_hits"] > 0 and stats["stores"] == 0
        assert len(response.result.final_table) == SKILL_CORPUS_SIZE + 4
