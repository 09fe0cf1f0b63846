"""The facade's exact token ledger on a fixed corpus.

Population and the flagship query are deterministic per seed, so their
token bills are pinned exactly.  A query's whole bill covers parsing,
compilation and execution.  The flagship compile profiles the VLM and
cascade classifier variants on sample rows, so a change to how profiling
prices a model call shows up here as a changed whole bill.  The facade's
default session rides a pass-through gateway; every bill below is the one
the direct (un-routed) model path charged before it.
"""

import pytest

from repro import KathDB, KathDBConfig, ScriptedUser, build_movie_corpus
from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, FLAGSHIP_QUERY


def check_bills(seed, population, execution, whole_query):
    db = KathDB(KathDBConfig(seed=seed))
    db.load_corpus(build_movie_corpus(size=20, seed=seed))
    assert db.total_tokens() == population
    for _ in range(2):
        before = db.total_tokens()
        # The user the CLI's ``--flagship`` scripts.
        user = ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])
        result = db.query(FLAGSHIP_QUERY, user=user)
        assert result.total_tokens == execution             # execution
        assert db.total_tokens() - before == whole_query    # the whole query


def test_population_and_flagship_bills():
    check_bills(7, population=14_072, execution=3_710, whole_query=19_018)


@pytest.mark.parametrize("seed, population, execution, whole_query", [
    (1, 14_044, 3_797, 19_415),
    (13, 13_971, 5_215, 19_653),
], ids=["seed1", "seed13"])
def test_population_and_flagship_bills_at_more_seeds(seed, population, execution,
                                                     whole_query):
    check_bills(seed, population, execution, whole_query)
