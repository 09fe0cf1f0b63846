"""Tests for the persistent gateway cache (codec, store, restart round-trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.service import KathDBService
from repro.cli import parse_gateway_cache
from repro.core.config import KathDBConfig
from repro.data.mmqa import build_movie_corpus
from repro.errors import KathDBError
from repro.gateway.fingerprint import request_key
from repro.gateway.persist import (
    GatewayCacheStore,
    UnpersistableResult,
    decode_value,
    encode_value,
)
from repro.gateway.semantic import SemanticNearCache, term_signature
from repro.models.ner import ExtractedEntity, ExtractionResult
from repro.skills.backends import MemoryBackend, backend_from_spec


# -- codec -----------------------------------------------------------------------------

class TestCodec:
    def test_primitives_round_trip(self):
        for value in (None, True, False, 0, -3, 2.5, "text", ""):
            assert decode_value(encode_value(value)) == value

    def test_containers_round_trip(self):
        value = {"a": [1, 2.0, "x"], "b": (True, None), "c": {7, 8},
                 "nested": {"deep": [(1,), {2}]}}
        restored = decode_value(encode_value(value))
        assert restored == value
        assert isinstance(restored["b"], tuple)
        assert isinstance(restored["c"], set)

    def test_bytes_and_ndarray_round_trip(self):
        blob = b"\x00\x01binary"
        assert decode_value(encode_value(blob)) == blob
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        restored = decode_value(encode_value(array))
        assert isinstance(restored, np.ndarray)
        assert restored.dtype == array.dtype
        assert np.array_equal(restored, array)

    def test_repro_dataclass_round_trips(self):
        result = ExtractionResult(entities=[
            ExtractedEntity(entity_id=0, class_name="person",
                            canonical="Alice")])
        restored = decode_value(encode_value(result))
        assert isinstance(restored, ExtractionResult)
        assert restored == result

    def test_foreign_types_raise(self):
        class NotOurs:
            pass

        with pytest.raises(UnpersistableResult):
            encode_value(NotOurs())

    def test_foreign_dataclass_rejected_on_decode(self):
        encoded = {"__kathdb__": "dataclass", "type": "os:path",
                   "fields": {}}
        with pytest.raises(UnpersistableResult):
            decode_value(encoded)


# -- the store -------------------------------------------------------------------------

class TestGatewayCacheStore:
    def test_exact_entries_round_trip(self):
        store = GatewayCacheStore(MemoryBackend())
        key = request_key("ner", "extract", ("some text",), {})
        assert store.put_exact(key, {"answer": [1, 2]}, token_cost=37)
        loaded = list(store.load_exact())
        assert loaded == [(key, {"answer": [1, 2]}, 37)]
        assert store.stats.persisted == 1
        assert store.stats.restored == 1

    def test_unpersistable_results_are_skipped_not_raised(self):
        store = GatewayCacheStore(MemoryBackend())
        key = request_key("llm", "complete", ("q",), {})
        assert not store.put_exact(key, object(), token_cost=5)
        assert store.stats.skipped == 1
        assert list(store.load_exact()) == []

    def test_semantic_entries_round_trip(self):
        store = GatewayCacheStore(MemoryBackend())
        group = ("embedding", "match_fraction", "lex0", "()")
        signature = term_signature(["gun", "chase"], ["murder"])
        store.put_semantic(group, signature, 0.75, token_cost=12)
        loaded = store.load_semantic()
        assert loaded == [(group, signature, 0.75, 12)]

    def test_clear_and_close(self, tmp_path):
        store = GatewayCacheStore(backend_from_spec("file", tmp_path / "gw"))
        key = request_key("m", "f", (1,), {})
        store.put_exact(key, "result", 1)
        assert store.clear() == 1
        assert list(store.load_exact()) == []
        store.close()
        store.close()  # idempotent


# -- service wiring --------------------------------------------------------------------

def file_config(path, **overrides):
    return KathDBConfig(seed=7, simulate_model_latency=0.0,
                        gateway_cache_backend="file",
                        gateway_cache_path=path, **overrides)


class TestServiceWiring:
    def test_memory_backend_builds_no_store(self):
        service = KathDBService(KathDBConfig())
        assert service.gateway_store is None
        service.shutdown()

    def test_config_promotes_path_to_file_backend(self, tmp_path):
        config = KathDBConfig(gateway_cache_path=tmp_path / "gw")
        assert config.gateway_cache_backend == "file"

    def test_config_rejects_pathless_persistent_backend(self):
        with pytest.raises(KathDBError):
            KathDBConfig(gateway_cache_backend="sqlite")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(KathDBError):
            KathDBConfig(gateway_cache_backend="redis",
                         gateway_cache_path="/tmp/x")

    def test_parse_gateway_cache_specs(self):
        assert parse_gateway_cache("memory") == {
            "gateway_cache_backend": "memory"}
        assert parse_gateway_cache("file:/tmp/gw") == {
            "gateway_cache_backend": "file", "gateway_cache_path": "/tmp/gw"}
        with pytest.raises(ValueError):
            parse_gateway_cache("sqlite")
        with pytest.raises(ValueError):
            parse_gateway_cache("redis:/tmp/x")

    def test_volatile_entries_never_persist(self, tmp_path):
        service = KathDBService(file_config(tmp_path / "gw"))
        client = service.gateway.client("t")
        image = build_movie_corpus(size=1, seed=7).movies[0].poster
        client.invoke(service.models.vlm, "extract_scene_graph", (image,))
        # URI-keyed request: cached in memory, skipped by the store.
        assert len(service.gateway.cache) == 1
        assert service.gateway_store.stats.persisted == 0
        service.shutdown()

    def test_full_clear_wipes_the_store(self, tmp_path):
        service = KathDBService(file_config(tmp_path / "gw"))
        client = service.gateway.client("t")
        client.invoke(service.models.ner, "extract", ("Alice met Bob.",))
        assert service.gateway_store.stats.persisted == 1
        service.gateway.clear()
        assert list(service.gateway_store.load_exact()) == []
        service.shutdown()


# -- restart round-trip (satellite: warm hits + rebuilt ANN index) ---------------------

class TestRestartRoundTrip:
    def test_exact_hits_survive_a_service_restart(self, tmp_path):
        corpus = build_movie_corpus(size=6, seed=7)
        cold = KathDBService(file_config(tmp_path / "gw"))
        cold.load_corpus(corpus)
        cold_tokens = cold.total_tokens()
        assert cold.gateway_store.stats.persisted > 0
        cold.shutdown()

        warm = KathDBService(file_config(tmp_path / "gw"))
        assert warm.gateway_store.stats.restored > 0
        assert len(warm.gateway.cache) > 0
        warm.load_corpus(corpus)
        # Text-keyed population calls (NER batches) hit the restored cache;
        # URI-keyed VLM calls are volatile and re-execute by design.
        assert warm.gateway.cache.stats.hits > 0
        assert warm.total_tokens() < cold_tokens
        warm.shutdown()

    def test_semantic_index_rebuilds_with_zero_false_accepts(self, tmp_path):
        store = GatewayCacheStore(backend_from_spec("file", tmp_path / "gw"))
        first = SemanticNearCache(threshold=0.999, mode="ann", store=store)
        group = ("embedding", "match_fraction", "lex", "()")
        stored_signature = term_signature(["gun", "murder", "chase"],
                                          ["thriller"])
        vector = first.embed_signature(stored_signature)
        first.put(group, vector, stored_signature, 0.8, token_cost=25)

        rebuilt = SemanticNearCache(threshold=0.999, mode="ann", store=store)
        assert rebuilt.restore_persisted() == 1
        occupancy = rebuilt.index.as_dict()
        assert occupancy["entries"] == 1
        assert occupancy["buckets"] > 0
        # The identical signature is served through the rebuilt index ...
        hit = rebuilt.lookup(group, stored_signature,
                             rebuilt.embed_signature(stored_signature))
        assert hit is not None and hit.result == 0.8
        # ... while dissimilar requests fall back at the 0.999 threshold:
        # a restored entry must never be a false accept.
        for terms in (["sunset", "romance"], ["paperwork"], ["gun"]):
            other = term_signature(terms, ["thriller"])
            assert rebuilt.lookup(group, other,
                                  rebuilt.embed_signature(other)) is None
        store.close()

    def test_corpus_reload_restores_persisted_semantic_entries(self, tmp_path):
        service = KathDBService(file_config(tmp_path / "gw"))
        signature = term_signature(["gun"], ["thriller"])
        group = ("embedding", "match_fraction", "lex", "()")
        vector = service.gateway.semantic.embed_signature(signature)
        service.gateway.semantic.put(group, vector, signature, 0.5,
                                     token_cost=10)
        service.gateway.clear(volatile_only=True)
        # The volatile clear wiped the tier, then restored it from the store:
        # persisted signatures fully determine their answers.
        assert service.gateway.semantic.stats.entries == 1
        assert service.gateway.semantic.lookup(group, signature,
                                               vector) is not None
        service.shutdown()
