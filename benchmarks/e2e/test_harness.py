"""Tests of the benchmark harness itself (no service is started).

Collected by tier-1 (``PYTHONPATH=src python -m pytest -x -q``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e import compare, mix, probe, spec, stats

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ---------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None          # 9.5 beyond the median
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1500) == 99.0
    assert not stats.supported(60, 90.0) and stats.supported(100, 90.0)


def test_summarize_reports_count_median_and_tail():
    summary = stats.summarize(list(range(1, 201)))
    assert summary["n"] == 200 and summary["tail_q"] == 95.0
    assert summary["p50"] == 100.5
    assert summary["tail"] == pytest.approx(190.05)
    assert stats.summarize([])["p50"] is None


def test_quantile_interpolates():
    assert stats.quantile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.quantile([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        stats.quantile([], 50.0)


def test_spread_is_the_drivers_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_quiet_half_ignores_disturbed_blocks():
    quiet = [10.0, 10.2, 9.9, 10.1]
    assert stats.quiet_half(quiet + [15.0, 17.0, 30.0]) == pytest.approx(10.05)
    # Rates: the quiet blocks are the fast ones.
    assert stats.quiet_half([100.0, 60.0, 98.0, 40.0], lower_is_quiet=False) == 99.0
    assert stats.quiet_half([7.0]) == 7.0


# -- self time ---------------------------------------------------------------------
def test_self_time_subtracts_nested_children_once():
    spans = [
        (1, 0, 0, 100, 0),     # root
        (2, 1, 10, 40, 0),     # child
        (3, 2, 15, 25, 0),     # grandchild
        (4, 1, 50, 70, 0),     # second child
    ]
    assert stats.self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20}


def test_self_time_with_overlapping_and_escaping_children():
    spans = [
        (1, 0, 0, 100, 5),     # parent with 5 ns of leaf-probe time inside
        (2, 1, 10, 60, 0),     # two workers on other threads overlap ...
        (3, 1, 40, 90, 0),
        (4, 1, 95, 140, 0),    # ... and one outlives the parent
    ]
    times = stats.self_times(spans)
    assert times[1] == 100 - (90 - 10) - (100 - 95) - 5
    assert times[4] == 45


def test_covered_clips_and_merges():
    assert stats.covered([(5, 15), (10, 20), (30, 50)], 0, 40) == 15 + 10
    assert stats.covered([], 0, 10) == 0


# -- seeded inputs -------------------------------------------------------------------
def schedule(seed: int):
    return mix.open_loop_schedule(seed, spec.OPEN_RATES, (5.0, 3.0, 2.0))


def test_schedule_is_deterministic_per_seed_and_differs_across_seeds():
    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(11)


def test_schedule_rates_mix_and_tenants():
    arrivals = schedule(7)
    for rate, seconds in zip(spec.OPEN_RATES, (5.0, 3.0, 2.0)):
        phase = [a for a in arrivals if a.rate == rate]
        assert len(phase) == rate * seconds
        assert [a.due_s for a in phase] == [i / rate for i in range(len(phase))]
    kinds = [a.kind for a in arrivals]
    assert kinds.count("repeat") / len(kinds) == pytest.approx(0.6, abs=0.02)
    assert kinds.count("novel") / len(kinds) == pytest.approx(0.2, abs=0.02)
    tenants = [a.tenant for a in arrivals]
    assert tenants.count("t-hog") / len(tenants) == pytest.approx(0.6, abs=0.02)
    assert {a.priority for a in arrivals if a.tenant == "t-hog"} == {"batch"}
    novel = [a.nl_query for a in arrivals if a.kind == "novel"]
    assert len(set(novel)) == len(novel)              # never repeated within a run


def test_paraphrases_are_seeded_and_reword_the_request():
    shape = mix.SHAPES[4]
    first = [mix.paraphrase(shape, mix.rng_for(7, "p")) for _ in range(2)]
    assert first[0] == first[1]
    many = {mix.paraphrase(shape, rng) for rng in [mix.rng_for(7, "q")] for _ in range(40)}
    assert len(many) > 8
    assert all(text.strip().lower() != shape.nl_query.lower() for text in many)


def test_novel_queries_are_distinct_and_bounded():
    queries = mix.novel_queries(mix.rng_for(3, "n"), 50)
    assert len({text for text, _ in queries}) == 50
    assert all(("exciting" in answers) == ("exciting" in text) for text, answers in queries)
    sent = {text for text, _ in queries}
    later = mix.novel_queries(mix.rng_for(3, "n"), 50, exclude=sent)
    assert not sent & {text for text, _ in later}
    with pytest.raises(ValueError):
        mix.novel_queries(mix.rng_for(3, "n"), 10_000)


# -- compare.py verdicts ---------------------------------------------------------------
LATENCY = spec.Metric("query_p50_ms", "ms", "lower", 0.10, "")
RATE = spec.Metric("queries_per_s", "1/s", "higher", 0.10, "")
MUST_NOT_DROP = spec.Metric("max_rate_ok_qps", "1/s", "higher", 0.0, "")


@pytest.mark.parametrize("metric, a, b, expected", [
    (LATENCY, [10.0], [10.5], "unchanged"),
    (LATENCY, [10.0], [11.5], "regressed"),
    (LATENCY, [10.0], [8.5], "improved"),
    (RATE, [100.0], [85.0], "regressed"),
    (RATE, [100.0], [115.0], "improved"),
    (MUST_NOT_DROP, [40.0], [40.0], "unchanged"),
    (MUST_NOT_DROP, [40.0], [20.0], "regressed"),
    # Spread wider than the bound: only a clean separation is a verdict.
    (LATENCY, [10.0, 12.0, 14.0], [10.5, 12.5, 14.5], "unresolved"),
    (LATENCY, [10.0, 12.0, 14.0], [13.0, 15.0, 17.0], "unresolved"),
    (LATENCY, [10.0, 12.0, 14.0], [15.0, 17.0, 19.0], "regressed"),
    (LATENCY, [10.0, 12.0, 14.0], [6.0, 7.0, 8.0], "improved"),
    (LATENCY, [10.0, 10.1, 10.2], [10.1, 10.2, 10.3], "unchanged"),
])
def test_verdict(metric, a, b, expected):
    assert compare.verdict(metric, a, b)[0] == expected


def test_compare_exit_status(tmp_path, capsys):
    def results(p50: float) -> str:
        path = tmp_path / f"{p50}.json"
        path.write_text(json.dumps({"workloads": {"warm_fit": {"end_to_end": {
            "query_p50_ms": p50, "failed_share": 0.0}}}}))
        return str(path)

    assert compare.main([results(5.0), results(5.2)]) == 0
    assert compare.main([results(5.0), results(7.0)]) == 1
    assert "regressed" in capsys.readouterr().out


# -- probes ------------------------------------------------------------------------------
def test_probe_install_and_uninstall_restore_originals():
    from repro.gateway import fingerprint, gateway, vectorized
    from repro.api.session import Session
    from repro.core.stack import QueryStack

    originals = (fingerprint.canonicalize, gateway.canonicalize, vectorized.canonicalize,
                 Session.__dict__["query"], QueryStack.__dict__["build"])
    nested = {"b": [1, 2], "a": "x"}
    expected = fingerprint.canonicalize(nested)
    recorder = probe.Recorder()
    recorder.install()
    try:
        assert not recorder.errors
        # A from-import binding in another module is re-bound too.
        assert gateway.canonicalize is fingerprint.canonicalize is not originals[0]
        assert Session.__dict__["query"] is not originals[3]
        assert isinstance(QueryStack.__dict__["build"], classmethod)
        assert fingerprint.canonicalize(nested) == expected
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.uninstall()
    assert (fingerprint.canonicalize, gateway.canonicalize, vectorized.canonicalize,
            Session.__dict__["query"], QueryStack.__dict__["build"]) == originals
    # The nested canonicalize calls of one top-level call count once.
    assert recorder.leaf_totals()["gateway.fingerprint_ms"][0] == 1


def test_unknown_probe_target_is_reported_not_raised():
    recorder = probe.Recorder()
    recorder.install((probe.Probe("api", "repro.api.session", "Session.no_such_method",
                                  "boundary", "api.frontend_ms"),))
    recorder.uninstall()
    assert len(recorder.errors) == 1 and "no_such_method" in recorder.errors[0]


# -- the declared surface ------------------------------------------------------------------
def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        [entry[:3] for entry in spec.PER_LAYER]
    assert "setup_s" in spec.END_TO_END_NAMES
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(len(w.why) <= 200 for w in spec.WORKLOADS)
    names = list(spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES + spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))


def test_every_probe_feeds_a_declared_metric():
    declared = set(spec.PER_LAYER_NAMES)
    assert {p.metric for p in probe.PROBES} <= declared
    assert len({p.name for p in probe.PROBES}) == len(probe.PROBES)
