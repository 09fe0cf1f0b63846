"""Shared fixtures for the KathDB reproduction test suite.

Expensive artifacts (the loaded KathDB instance and the flagship query result)
are session-scoped: many integration tests inspect them, and they are fully
deterministic, so sharing them keeps the suite fast without coupling tests.
"""

from __future__ import annotations

import argparse
import sys

import pytest

from repro import KathDB, KathDBConfig, ScriptedUser, build_movie_corpus
from repro.data.workloads import (
    FLAGSHIP_CLARIFICATION,
    FLAGSHIP_CORRECTION,
    FLAGSHIP_QUERY,
)
from repro.gateway.gateway import ModelGateway
from repro.models.base import ModelSuite
from repro.relational.catalog import Catalog
from repro.relational.table import Table

CORPUS_SIZE = 20
CORPUS_SEED = 7


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def pytest_addoption(parser):
    parser.addoption(
        "--switch-interval", type=_positive_seconds, default=None, metavar="SECONDS",
        help="run the session under sys.setswitchinterval(SECONDS); small values "
             "hand the GIL over often and shake out races in threaded tests")


@pytest.fixture(scope="session", autouse=True)
def switch_interval(request):
    """Apply ``--switch-interval`` for the session, restoring it afterwards."""
    interval = request.config.getoption("--switch-interval")
    if interval is None:
        yield None
        return
    previous = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        yield interval
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture(scope="session")
def corpus():
    """The synthetic MMQA-style movie corpus used across the suite."""
    return build_movie_corpus(size=CORPUS_SIZE, seed=CORPUS_SEED)


def pass_through_suite():
    """A suite routed through a pass-through gateway: every call executes and
    is billed, and vectors of calls (``call_many``) have their funnel."""
    return ModelSuite.create(seed=42).routed(ModelGateway.pass_through(), "test")


@pytest.fixture(scope="session")
def models():
    """A shared simulated-model suite (deterministic, read-only usage)."""
    return pass_through_suite()


@pytest.fixture()
def fresh_models():
    """A fresh model suite for tests that mutate the lexicon or count tokens."""
    return pass_through_suite()


@pytest.fixture()
def movie_tables(corpus):
    """Fresh base relations exported from the corpus."""
    return corpus.to_tables()


@pytest.fixture()
def small_catalog():
    """A small catalog with two joinable tables for relational tests."""
    catalog = Catalog()
    movies = Table.from_rows("movies", [
        {"movie_id": 1, "title": "Guilty by Suspicion", "year": 1991, "score": 0.99},
        {"movie_id": 2, "title": "Clean and Sober", "year": 1988, "score": 0.97},
        {"movie_id": 3, "title": "Old Film", "year": 1950, "score": 0.20},
        {"movie_id": 4, "title": "Quiet Days", "year": 2003, "score": None},
    ])
    plots = Table.from_rows("plots", [
        {"movie_id": 1, "plot": "a tense thriller about the blacklist"},
        {"movie_id": 2, "plot": "a drama about recovery"},
        {"movie_id": 3, "plot": "an old quiet story"},
    ])
    catalog.register(movies)
    catalog.register(plots)
    return catalog


def make_flagship_user() -> ScriptedUser:
    """The scripted user from the paper's Section 6 walk-through."""
    return ScriptedUser({"exciting": FLAGSHIP_CLARIFICATION}, [FLAGSHIP_CORRECTION])


@pytest.fixture(scope="session")
def loaded_db(corpus):
    """A KathDB instance with the corpus loaded (views populated)."""
    db = KathDB(KathDBConfig(seed=CORPUS_SEED))
    db.load_corpus(corpus)
    return db


@pytest.fixture(scope="session")
def flagship_result(loaded_db):
    """The flagship query executed once against the shared instance."""
    user = make_flagship_user()
    return loaded_db.query(FLAGSHIP_QUERY, user=user)


@pytest.fixture(scope="session")
def flagship_query() -> str:
    return FLAGSHIP_QUERY
