"""Seeded request mix: the six default shapes, paraphrases, novel requests,
and the open-loop arrival schedule.  Same seed -> same inputs.

* *repeat* — one of ``build_default_workload()``'s six queries, verbatim.
* *paraphrase* — the same request reworded (clause order + a neutral opener +
  case/whitespace noise): a new prepared-cache key and a semantic-tier
  candidate, with rows identical to the base shape's (the harness checks).
* *novel* — ``released after|before YYYY`` x exciting/calm, never repeated
  within a run: a cold compile with real gateway misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro import QueryRequest, ScriptedUser
from repro.data.workloads import FLAGSHIP_CLARIFICATION, WorkloadQuery, build_default_workload

SHAPES: Tuple[WorkloadQuery, ...] = tuple(build_default_workload().queries)
#: Shapes whose answer is a ranking (scored with ranking_accuracy; the rest with set_f1).
RANKED = frozenset({"flagship_exciting_boring", "flagship_without_correction",
                    "rank_all_by_excitement"})

_FLAGSHIP_REWORDINGS = (
    "The poster should be 'boring', but sort the films in the table by how exciting they are.",
    "By how exciting they are, sort the films in the table; the poster should be 'boring' though.",
)
#: Clause-order rewordings per shape; each keeps the parser's reading.
_REWORDINGS: Dict[str, Tuple[str, ...]] = {
    "flagship_exciting_boring": _FLAGSHIP_REWORDINGS,
    "flagship_without_correction": _FLAGSHIP_REWORDINGS,
    "rank_all_by_excitement": (
        "By how exciting its plot is, rank every film.",
        "Every film: rank it by how exciting its plot is.",
    ),
    "find_boring_posters": (
        "A boring poster: which films have one?",
        "Films with a boring poster -- which are they?",
    ),
    "recent_exciting": (
        "Films whose plots are exciting and that were released after 2000: list them.",
        "Released after 2000, with plots that are exciting: list those films.",
    ),
    "calm_classics": (
        "With calm, quiet plots and released before 1995: show those films.",
        "Films released before 1995 that have quiet, calm plots, show them.",
    ),
}
#: Neutral openers (no ranking, filter, concept or subjective vocabulary).
_OPENERS = ("", "Please:", "Kindly:", "Now:", "Again:", "For my notes:", "One more:", "Next:")
_NOVEL_YEARS = range(1950, 2025)


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"kathdb-e2e/{seed}/{purpose}")


def make_request(shape: WorkloadQuery) -> QueryRequest:
    """A fresh request for ``shape`` (own ScriptedUser: its cursor is stateful)."""
    user = ScriptedUser(dict(shape.clarification_answers), corrections=list(shape.corrections))
    return QueryRequest(nl_query=shape.nl_query, user=user)


def paraphrase(shape: WorkloadQuery, rng: random.Random) -> str:
    text = rng.choice(_REWORDINGS[shape.name])
    opener = rng.choice(_OPENERS)
    if opener:
        text = f"{opener} {text}"
    style = rng.randrange(3)
    if style == 1:
        text = text.upper()
    elif style == 2:
        text = "  " + text.replace(", ", " ,  ")
    return text


def novel_queries(rng: random.Random, count: int,
                  exclude: Collection[str] = ()) -> List[Tuple[str, Dict[str, str]]]:
    """``count`` distinct never-before-seen requests with their clarifications;
    ``exclude`` holds the texts an earlier window of the run already sent."""
    pool = [(f"List films released {direction} {year} whose plots are {mood}.",
             {"exciting": FLAGSHIP_CLARIFICATION} if mood == "exciting" else {})
            for direction in ("after", "before")
            for year in _NOVEL_YEARS for mood in ("exciting", "calm")
            # The default shapes already compile these two filters.
            if (direction, year) not in (("after", 2000), ("before", 1995))]
    pool = [entry for entry in pool if entry[0] not in exclude]
    if count > len(pool):
        raise ValueError(f"only {len(pool)} novel requests left, asked for {count}")
    return rng.sample(pool, count)


# ---------------------------------------------------------------------------
# Open-loop schedule
# ---------------------------------------------------------------------------
#: Per block of ten arrivals: request kinds and tenants (tenant, priority class).
_KIND_BLOCK = ("repeat",) * 6 + ("paraphrase",) * 2 + ("novel",) * 2
_TENANT_BLOCK = (("t-a", "interactive"),) * 2 + (("t-b", "interactive"),) * 2 \
    + (("t-hog", "batch"),) * 6


@dataclass(frozen=True)
class Arrival:
    rate: int
    due_s: float            # offset from the start of its rate's phase
    kind: str               # repeat | paraphrase | novel
    shape: Optional[int]    # index into SHAPES (None for novel)
    nl_query: str
    clarifications: Tuple[Tuple[str, str], ...]
    corrections: Tuple[str, ...]
    tenant: str
    priority: str


def open_loop_schedule(seed: int, rates: Sequence[int], phase_seconds: Sequence[float],
                       exclude: Collection[str] = ()) -> List[Arrival]:
    """Fixed-interval arrivals per rate, ascending; exact 60/20/20 kind mix and
    20/20/60 tenant mix in every block of ten, shuffled by the seed."""
    rng = rng_for(seed, "open-loop")
    total = sum(int(rate * seconds) for rate, seconds in zip(rates, phase_seconds))
    novel = iter(novel_queries(rng, total // 5 + len(rates) * 2, exclude))
    arrivals: List[Arrival] = []
    for rate, seconds in zip(rates, phase_seconds):
        kinds: List[str] = []
        tenants: List[Tuple[str, str]] = []
        for index in range(int(rate * seconds)):
            if not kinds:
                kinds = list(_KIND_BLOCK)
                tenants = list(_TENANT_BLOCK)
                rng.shuffle(kinds)
                rng.shuffle(tenants)
            kind = kinds.pop()
            tenant, priority = tenants.pop()
            if kind == "novel":
                text, answers = next(novel)
                shape, corrections = None, ()
            else:
                shape = rng.randrange(len(SHAPES))
                base = SHAPES[shape]
                text = base.nl_query if kind == "repeat" else paraphrase(base, rng)
                answers, corrections = base.clarification_answers, tuple(base.corrections)
            arrivals.append(Arrival(rate, index / rate, kind, shape, text,
                                    tuple(sorted(answers.items())), corrections,
                                    tenant, priority))
    return arrivals


def arrival_request(arrival: Arrival, deadline_ms: float) -> QueryRequest:
    user = ScriptedUser(dict(arrival.clarifications), corrections=list(arrival.corrections))
    return QueryRequest(nl_query=arrival.nl_query, user=user, tenant_id=arrival.tenant,
                        priority=arrival.priority, deadline_ms=deadline_ms)
