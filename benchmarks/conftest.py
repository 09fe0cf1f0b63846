"""Shared fixtures for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one of the paper's tables/figures (T1,
T2, T3/F2, F1-F6) or one ablation (A1-A7); its docstring's first line names
the experiment.  Run them with ``PYTHONPATH=src python -m pytest -q
benchmarks/bench_*.py --benchmark-disable``.  Fixtures are session-scoped
where the artifact is read-only.  ``benchmarks/e2e`` is the end-to-end
performance benchmark of the shipped defaults.
"""

from __future__ import annotations

import pytest

from repro import KathDB, KathDBConfig, ScriptedUser, build_movie_corpus
from repro.data.workloads import (
    FLAGSHIP_CLARIFICATION,
    FLAGSHIP_CORRECTION,
    FLAGSHIP_QUERY,
)
from repro.gateway.gateway import ModelGateway
from repro.models.base import ModelSuite

CORPUS_SIZE = 20
CORPUS_SEED = 7


def make_flagship_user() -> ScriptedUser:
    """The scripted user of the paper's Section 6 walk-through."""
    return ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])


def fresh_loaded_db(**config_overrides) -> KathDB:
    """A freshly loaded KathDB instance (own models, catalog, lineage)."""
    corpus = build_movie_corpus(size=CORPUS_SIZE, seed=CORPUS_SEED)
    db = KathDB(KathDBConfig(seed=CORPUS_SEED, **config_overrides))
    db.load_corpus(corpus)
    return db


@pytest.fixture(scope="session")
def bench_corpus():
    return build_movie_corpus(size=CORPUS_SIZE, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def bench_models():
    """A suite routed through a pass-through gateway (no tier answers a
    call), as the facade's default session is: populators hand it vectors."""
    return ModelSuite.create(seed=CORPUS_SEED).routed(ModelGateway.pass_through(),
                                                      "bench")


@pytest.fixture(scope="session")
def bench_db(bench_corpus):
    """A shared loaded instance for read-mostly benchmarks."""
    db = KathDB(KathDBConfig(seed=CORPUS_SEED))
    db.load_corpus(bench_corpus)
    return db


@pytest.fixture(scope="session")
def bench_flagship_result(bench_db):
    """The flagship query executed once on the shared instance."""
    return bench_db.query(FLAGSHIP_QUERY, user=make_flagship_user())


@pytest.fixture(scope="session")
def flagship_query() -> str:
    return FLAGSHIP_QUERY
