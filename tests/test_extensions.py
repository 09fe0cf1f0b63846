"""Tests for the extension features: profile cache, cascade classifier,
function roll-backs / plan re-runs, and the command-line interface."""

import pytest

from repro import KathDB, KathDBConfig, ScriptedUser, build_movie_corpus
from repro.cli import build_arg_parser, build_user, parse_clarifications, run
from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY
from repro.fao.profiler import ProfileResult
from repro.fao.registry import FunctionRegistry
from repro.interaction.channel import InteractionChannel
from repro.interaction.user import ConsoleUser, ScriptedUser as ScriptedUserAgent, SilentUser
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.profile_cache import CachedProfile, ProfileCache
from repro.skills.backends import FileBackend


def make_profile(tokens=120, rows=4, success=True, runtime=0.004):
    return ProfileResult(function_name="f", variant="v", success=success,
                         runtime_s=runtime, tokens_used=tokens, rows_in=rows, rows_out=rows)


class TestProfileCache:
    def test_record_and_get(self):
        cache = ProfileCache()
        assert cache.get("semantic_score", "embedding_similarity") is None
        cache.record("semantic_score", "embedding_similarity", make_profile())
        entry = cache.get("semantic_score", "embedding_similarity")
        assert entry is not None
        assert entry.tokens_per_row == pytest.approx(30.0)
        assert cache.hits == 1 and cache.misses == 1

    def test_update_averages_over_samples(self):
        entry = CachedProfile()
        entry.update(make_profile(tokens=100, rows=4))
        entry.update(make_profile(tokens=200, rows=4))
        assert entry.samples == 2
        assert entry.tokens_per_row == pytest.approx(37.5)

    def test_failed_profiles_lower_success_rate(self):
        entry = CachedProfile()
        entry.update(make_profile(success=False))
        assert entry.success_rate == 0.0
        assert not entry.as_profile("f", "v", 10).success

    def test_as_profile_scales_to_row_count(self):
        entry = CachedProfile(tokens_per_row=5.0, runtime_per_row_s=0.001,
                              success_rate=1.0, samples=3)
        synthetic = entry.as_profile("gen_excitement_score", "embedding_similarity", 20)
        assert synthetic.tokens_used == 100
        assert synthetic.rows_in == 20 and synthetic.success

    def test_persistence_roundtrip(self, tmp_path):
        cache = ProfileCache(backend=FileBackend(tmp_path / "store"))
        cache.record("classify_image", "scene_statistics", make_profile(tokens=40))
        reloaded = ProfileCache(backend=FileBackend(tmp_path / "store"))
        assert len(reloaded) == 1
        assert ("classify_image", "scene_statistics") in reloaded
        assert reloaded.get("classify_image", "scene_statistics").tokens_per_row > 0

    def test_describe(self):
        cache = ProfileCache()
        cache.record("rank", "sort_descending", make_profile())
        assert "rank/sort_descending" in cache.describe()


class TestOfflineProfilingInOptimizer:
    def test_second_optimization_reuses_cached_profiles(self, corpus):
        db = KathDB(KathDBConfig(seed=5, enable_profile_cache=True))
        db.load_corpus(corpus)
        channel = InteractionChannel(ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION},
                                                  [FLAGSHIP_CORRECTION]))
        _, plan, _ = db.parse_and_plan(FLAGSHIP_QUERY, channel)

        _, first_report = db.optimizer.optimize(plan)
        _, second_report = db.optimizer.optimize(plan)
        assert first_report.profile_cache_hits == 0
        assert second_report.profile_cache_hits == second_report.candidates_evaluated
        assert second_report.chosen_variants == first_report.chosen_variants
        assert db.profile_cache is not None and len(db.profile_cache) > 0

    def test_cache_disabled_by_default(self, corpus):
        db = KathDB(KathDBConfig(seed=5))
        assert db.profile_cache is None


class TestCascadeClassifier:
    @pytest.fixture(scope="class")
    def cascade_db(self, corpus):
        db = KathDB(KathDBConfig(seed=9, explore_variants=False,
                                 variant_overrides={"classify_boring": "cascade"}))
        db.load_corpus(corpus)
        return db

    def test_cascade_variant_selected_and_correct(self, cascade_db, corpus):
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
        result = cascade_db.query(FLAGSHIP_QUERY, user=user)
        record = result.record_for("classify_boring")
        assert record.function_variant == "cascade"
        assert result.titles()[:2] == ["Guilty by Suspicion", "Clean and Sober"]
        # Classification accuracy against ground truth stays high.
        truth = corpus.ground_truth_boring()
        flagged = result.intermediates["films_with_boring_flag"]
        correct = sum(1 for row in flagged
                      if bool(row["boring_poster"]) == truth[row["movie_id"]])
        assert correct / len(flagged) >= 0.9

    def test_cascade_cheaper_than_vlm_query(self, corpus):
        costs = {}
        for variant in ("cascade", "vlm_query"):
            db = KathDB(KathDBConfig(seed=9, explore_variants=False,
                                     variant_overrides={"classify_boring": variant}))
            db.load_corpus(corpus)
            user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
            result = db.query(FLAGSHIP_QUERY, user=user)
            costs[variant] = result.record_for("classify_boring").tokens
        assert costs["cascade"] < costs["vlm_query"]


class TestRollbackAndRerun:
    @pytest.fixture(scope="class")
    def rollback_db(self, corpus):
        db = KathDB(KathDBConfig(seed=4))
        db.load_corpus(corpus)
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
        result = db.query(FLAGSHIP_QUERY, user=user)
        return db, result

    def test_rollback_returns_previous_version(self, rollback_db):
        db, _ = rollback_db
        assert db.registry.version_count("gen_excitement_score") >= 2
        previous = db.rollback_function("gen_excitement_score")
        latest = db.registry.latest("gen_excitement_score")
        assert previous.version == latest.version - 1

    def test_rerun_with_alternate_version_changes_scores(self, rollback_db):
        db, original = rollback_db
        versions = db.registry.versions("gen_excitement_score")
        keyword_version = next(f for f in versions if f.variant == "keyword_overlap")
        rerun = db.rerun_with_versions(original,
                                       {"gen_excitement_score": keyword_version.version})
        assert rerun.record_for("gen_excitement_score").function_variant == "keyword_overlap"
        original_scores = {r["title"]: r["excitement_score"]
                           for r in original.intermediates["films_with_excitement"]}
        rerun_scores = {r["title"]: r["excitement_score"]
                        for r in rerun.intermediates["films_with_excitement"]}
        assert original_scores != rerun_scores
        # Unmentioned operators keep their chosen implementations.
        assert rerun.record_for("classify_boring").function_variant == \
            original.record_for("classify_boring").function_variant

    def test_rerun_requires_a_result(self, corpus):
        db = KathDB(KathDBConfig(seed=4))
        with pytest.raises(ValueError):
            db.rerun_with_versions(None, {})

    def test_rerun_preserves_the_source_transcript(self, rollback_db):
        # Regression: the rerun used to build a fresh InteractionChannel with
        # no transcript, silently dropping the original query's clarification
        # and correction history (and any recorded explanations).
        db, original = rollback_db
        original_turns = original.transcript.user_turns()
        assert original_turns > 0
        rerun = db.rerun_with_versions(original)
        assert rerun.transcript is original.transcript
        assert rerun.transcript.user_turns() >= original_turns
        clarifications = [i for i in rerun.transcript
                          if "exciting" in (i.metadata or {}).get("term", "")]
        assert clarifications, "the original clarification must survive the rerun"


class TestCLI:
    def test_parse_clarifications(self):
        parsed = parse_clarifications(["exciting=uncommon scenes", "boring=plain posters"])
        assert parsed == {"exciting": "uncommon scenes", "boring": "plain posters"}
        with pytest.raises(ValueError):
            parse_clarifications(["no-equals-sign"])

    def test_build_user_variants(self):
        parser = build_arg_parser()
        assert isinstance(build_user(parser.parse_args(["--flagship"])), ScriptedUserAgent)
        assert isinstance(build_user(parser.parse_args(["--query", "x"])), SilentUser)
        assert isinstance(build_user(parser.parse_args(
            ["--query", "x", "--clarify", "a=b"])), ScriptedUserAgent)
        assert isinstance(build_user(parser.parse_args(
            ["--query", "x", "--interactive"])), ConsoleUser)

    def test_run_requires_a_query(self, capsys):
        parser = build_arg_parser()
        assert run(parser.parse_args([])) == 2

    def test_run_simple_query(self, capsys):
        parser = build_arg_parser()
        args = parser.parse_args(["--query", "Which films have a boring poster?",
                                  "--size", "8", "--limit", "3", "--no-monitor"])
        assert run(args) == 0
        output = capsys.readouterr().out
        assert "result rows:" in output
        assert "Guilty by Suspicion" in output

    def test_run_flagship_with_explanations(self, capsys):
        parser = build_arg_parser()
        args = parser.parse_args(["--flagship", "--size", "8", "--limit", "2",
                                  "--explain", "--explain-top"])
        assert run(args) == 0
        output = capsys.readouterr().out
        assert "How KathDB answered" in output
        assert "weighted sum" in output

    def test_run_service_front_end(self, capsys):
        parser = build_arg_parser()
        args = parser.parse_args(["--flagship", "--size", "12", "--repeat", "2",
                                  "--jobs", "2", "--gateway-stats", "--sched-stats",
                                  "--skill-store", "memory", "--metrics", "--trace"])
        assert run(args) == 0
        output = capsys.readouterr().out
        for section in ("batch: 2 request(s), 2 worker(s)", "prepared-query cache:",
                        "scheduler: 2 worker(s)", "skill store:", "model gateway:",
                        "\ntrace t", "\nmetrics:", "counter gateway.misses:"):
            assert section in output, section

    def test_run_sharded_front_end(self, capsys):
        parser = build_arg_parser()
        args = parser.parse_args(["--flagship", "--size", "12", "--shards", "2",
                                  "--gateway-stats", "--sched-stats"])
        assert run(args) == 0
        output = capsys.readouterr().out
        for section in ("across 2 shards", "batch: 1 request(s), 2 shard(s)",
                        "ShardedService: 2 shards", "gateway (all shards):",
                        "scheduler: 2 worker(s)"):
            assert section in output, section
