"""The facade's exact token ledger on a fixed corpus.

Population and the flagship query are deterministic per seed, so their
token bills are pinned exactly.  A query's whole bill covers parsing,
compilation and execution.  The flagship compile profiles the VLM and
cascade classifier variants on sample rows, so a change to how profiling
prices a model call shows up here as a changed whole bill.
"""

from repro import KathDB, KathDBConfig, ScriptedUser, build_movie_corpus
from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY


def test_population_and_flagship_bills():
    db = KathDB(KathDBConfig(seed=7))
    db.load_corpus(build_movie_corpus(size=20, seed=7))
    assert db.total_tokens() == 14_072
    for _ in range(2):
        before = db.total_tokens()
        # The user the CLI's ``--flagship`` scripts.
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
        result = db.query(FLAGSHIP_QUERY, user=user)
        assert result.total_tokens == 3_710             # execution
        assert db.total_tokens() - before == 19_018     # the whole query
