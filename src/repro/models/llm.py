"""The simulated large language model.

Every agent in KathDB (reviewer, sketch generator, plan writer, plan verifier,
coder, profiler, critic, monitor, explainer) is "LLM-powered".  In this
reproduction those agents call :class:`SimulatedLLM`, which provides:

* natural-language *understanding*: ambiguity detection, query interpretation
  into a structured :class:`QueryIntent`, keyword-list generation,
  alternative-interpretation enumeration, dependency-pattern classification;
* natural-language *generation*: clarification questions, sketch-step text,
  explanation text (all template-based);
* semantic *judgement*: the critic/monitor checks for implausible outputs.

The implementation is rule- and lexicon-driven rather than neural, but it is
imperfect on purpose (it only understands vocabulary covered by its lexicon)
and every call charges prompt/completion tokens to the shared
:class:`~repro.models.cost.CostMeter`, so cost-based optimization and the
cost/accuracy benchmarks exercise the same code paths the paper describes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.models.calls import CallSpec, declare, mapping, optional_terms, terms
from repro.models.cost import CostMeter
from repro.models.lexicon import DEFAULT_LEXICON, Lexicon
from repro.utils.seed import SeededRNG
from repro.utils.text import content_words, estimate_tokens, normalize, tokenize


# ---------------------------------------------------------------------------
# Structured query interpretation
# ---------------------------------------------------------------------------
@dataclass
class SemanticScoreSpec:
    """A per-row semantic score computed from text (e.g. an excitement score)."""

    name: str                      # e.g. "excitement_score"
    concept: str                   # lexicon concept, e.g. "excitement"
    source_column: str = "plot"    # which text column feeds the score
    keywords: List[str] = field(default_factory=list)
    weight: float = 1.0


@dataclass
class ImagePredicateSpec:
    """A per-row predicate or score over poster images (e.g. 'boring')."""

    name: str                      # e.g. "boring"
    concept: str                   # "boring_visual" or "vivid_visual"
    mode: str = "filter"           # "filter" (keep matching rows) or "score"
    keep_if_true: bool = True


@dataclass
class RelationalFilterSpec:
    """A plain relational predicate (e.g. year > 2000)."""

    column: str
    op: str
    value: Any


@dataclass
class QueryIntent:
    """The LLM's structured interpretation of an NL query."""

    raw_query: str
    semantic_scores: List[SemanticScoreSpec] = field(default_factory=list)
    image_predicates: List[ImagePredicateSpec] = field(default_factory=list)
    relational_filters: List[RelationalFilterSpec] = field(default_factory=list)
    ranking: bool = False
    descending: bool = True
    include_recency: bool = False
    score_weights: Dict[str, float] = field(default_factory=dict)
    ambiguous_terms: List[str] = field(default_factory=list)
    clarifications: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def needs_text(self) -> bool:
        """Whether the query requires the text modality."""
        return bool(self.semantic_scores)

    @property
    def needs_images(self) -> bool:
        """Whether the query requires the image modality."""
        return bool(self.image_predicates)


@dataclass
class AmbiguityReport:
    """One detected ambiguity: the term, a focused question, and a priority."""

    term: str
    question: str
    priority: float  # >= 0.5 means the reviewer should ask before proceeding


# Subjective terms that have a reasonable default visual interpretation; the
# reviewer does not block on these (the paper only asks about "exciting").
_LOW_PRIORITY_SUBJECTIVE = {"boring", "plain", "dull", "nice", "memorable", "notable"}

_RANK_WORDS = {"sort", "rank", "order", "top", "best", "most"}
_FILTER_ONLY_WORDS = {"which", "list", "show", "find", "filter"}

_AFTER_RE = re.compile(r"(?:after|since|later than)\s+(\d{4})")
_BEFORE_RE = re.compile(r"(?:before|earlier than|prior to)\s+(\d{4})")

# Mapping from query vocabulary to lexicon concepts for semantic text scoring.
_TEXT_CONCEPT_TRIGGERS: Dict[str, str] = {
    "exciting": "excitement",
    "excitement": "excitement",
    "thrilling": "excitement",
    "dangerous": "excitement",
    "action": "excitement",
    "calm": "calm",
    "quiet": "calm",
    "peaceful": "calm",
    "romantic": "romance",
    "romance": "romance",
    "funny": "comedy",
    "comedy": "comedy",
    "scientific": "science",
    "medical": "healthcare",
}

# Mapping for image predicates.
_IMAGE_CONCEPT_TRIGGERS: Dict[str, Tuple[str, bool]] = {
    # term -> (concept, keep_if_true)
    "boring": ("boring_visual", True),
    "plain": ("boring_visual", True),
    "dull": ("boring_visual", True),
    "vivid": ("vivid_visual", True),
    "colorful": ("vivid_visual", True),
}

_IMAGE_NOUNS = {"poster", "posters", "image", "images", "picture", "pictures", "cover"}


class SimulatedLLM:
    """A deterministic, lexicon-grounded stand-in for a hosted LLM."""

    #: The charged entry points (see :mod:`repro.models.calls`).
    CALLS = declare(
        CallSpec("detect_ambiguity", "ambiguity_detection",
                 normalize={"resolved_terms": optional_terms}),
        CallSpec("generate_keywords", "keyword_generation"),
        CallSpec("alternative_interpretations", "interpretation_enumeration"),
        CallSpec("interpret_query", "query_interpretation",
                 normalize={"clarifications": mapping, "corrections": terms}),
        CallSpec("classify_dependency_pattern", "dependency_classification"),
        CallSpec("judge_output", "semantic_judgement",
                 normalize={"input_sample": terms, "output_sample": terms}),
        CallSpec("render_text", "text_generation"),
        CallSpec("complete", "freeform_completion"),
    )

    def __init__(self, cost_meter: Optional[CostMeter] = None, lexicon: Optional[Lexicon] = None,
                 seed: object = 0, keyword_count: int = 12, name: str = "llm:sim-instruct"):
        self.cost_meter = cost_meter
        self.lexicon = lexicon or DEFAULT_LEXICON
        self.keyword_count = keyword_count
        self.name = name
        self._rng = SeededRNG(("llm", seed))

    # -- cost plumbing -----------------------------------------------------------
    def _charge(self, prompt: str, completion: str, purpose: str) -> None:
        if self.cost_meter is not None:
            self.cost_meter.record(self.name, purpose,
                                   prompt_tokens=estimate_tokens(prompt),
                                   completion_tokens=estimate_tokens(completion))

    # -- ambiguity detection (reviewer agent) ---------------------------------------
    def detect_ambiguity(self, nl_query: str, resolved_terms: Optional[Sequence[str]] = None,
                         purpose: str = "ambiguity_detection") -> List[AmbiguityReport]:
        """Find subjective / user-dependent terms that need clarification.

        Mirrors the paper's reviewer prompt ("Look for ambiguous terms or
        subjective words ...").  Terms the user has already clarified are not
        reported again.
        """
        resolved = {normalize(t) for t in (resolved_terms or [])}
        reports: List[AmbiguityReport] = []
        seen = set()
        for word in tokenize(nl_query):
            if word in seen or word in resolved:
                continue
            if self.lexicon.concept("subjective") and word in self.lexicon.concept("subjective").terms:
                seen.add(word)
                priority = 0.3 if word in _LOW_PRIORITY_SUBJECTIVE else 0.9
                reports.append(AmbiguityReport(
                    term=word,
                    question=self.clarification_question(word),
                    priority=priority,
                ))
        reports.sort(key=lambda r: -r.priority)
        self._charge(nl_query, repr([r.term for r in reports]), purpose)
        return reports

    def clarification_question(self, term: str) -> str:
        """The focused clarification question for one ambiguous term."""
        return f"What does '{term}' mean in this context?"

    # -- keyword generation -----------------------------------------------------------
    def generate_keywords(self, concept_description: str, context: str = "",
                          count: Optional[int] = None,
                          purpose: str = "keyword_generation") -> List[str]:
        """Generate a keyword list for a concept ("exciting" -> gun, murder, ...).

        The paper notes that "the keyword list is also generated by the LLM";
        here the list is drawn from the lexicon cluster that best matches the
        concept description (plus any context the user supplied), which keeps
        the list meaningful for the downstream similarity search.
        """
        count = count or self.keyword_count
        concept = self._resolve_concept(concept_description, context)
        terms = self.lexicon.terms_for(concept) if concept else []
        # Also include content words from the user's clarification that carry
        # the concept's meaning (e.g. "gun fight" from the paper's reply).
        concept_terms = set(terms)
        extra = [w for w in content_words(context) if len(w) > 2 and w in concept_terms]
        merged: List[str] = []
        for term in extra + terms:
            normalized = normalize(term)
            if normalized not in merged:
                merged.append(normalized)
        keywords = merged[:count]
        prompt = f"concept: {concept_description}; context: {context}"
        self._charge(prompt, ", ".join(keywords), purpose)
        return keywords

    def _resolve_concept(self, description: str, context: str = "") -> Optional[str]:
        """Map a free-form concept description onto a lexicon concept."""
        words = tokenize(description) + tokenize(context)
        for word in words:
            trigger = _TEXT_CONCEPT_TRIGGERS.get(word)
            if trigger:
                return trigger
        # Fall back to whichever concept has the largest overlap with the words.
        best_name, best_hits = None, 0
        for name in self.lexicon.concept_names():
            concept = self.lexicon.concept(name)
            hits = sum(1 for w in words if w in concept.terms)
            if hits > best_hits:
                best_name, best_hits = name, hits
        return best_name

    def alternative_interpretations(self, term: str,
                                    purpose: str = "interpretation_enumeration") -> List[str]:
        """Enumerate alternative readings of a subjective term.

        The paper's example: "exciting movies" could mean action movies, recent
        releases, or award-winning movies.
        """
        interpretations = {
            "exciting": [
                "movies whose plots contain dangerous or uncommon events (action reading)",
                "movies released recently (recency reading)",
                "movies that won or were nominated for awards (award reading)",
            ],
            "boring": [
                "posters with plain backgrounds, few objects, and muted colors",
                "posters that contain mostly text",
            ],
        }.get(normalize(term), [f"a literal reading of '{term}'", f"a subjective reading of '{term}'"])
        self._charge(term, " | ".join(interpretations), purpose)
        return interpretations

    # -- query interpretation (sketch generator's understanding step) ------------------
    def interpret_query(self, nl_query: str, clarifications: Optional[Dict[str, str]] = None,
                        corrections: Optional[Sequence[str]] = None,
                        purpose: str = "query_interpretation") -> QueryIntent:
        """Interpret an NL query (plus clarifications/corrections) into a
        structured :class:`QueryIntent`."""
        clarifications = dict(clarifications or {})
        corrections = list(corrections or [])
        text = nl_query.lower()
        words = set(tokenize(nl_query))
        intent = QueryIntent(raw_query=nl_query, clarifications=clarifications)

        # Ranking vs filtering.
        intent.ranking = bool(words & _RANK_WORDS)
        if not intent.ranking and words & _FILTER_ONLY_WORDS:
            intent.ranking = False

        # Semantic text scores.
        for trigger, concept in _TEXT_CONCEPT_TRIGGERS.items():
            if trigger in words and not self._is_image_scoped(text, trigger):
                context = clarifications.get(trigger, "")
                spec = SemanticScoreSpec(
                    name=f"{concept}_score",
                    concept=concept,
                    source_column="plot",
                    keywords=self.generate_keywords(trigger, context),
                )
                if not any(s.concept == concept for s in intent.semantic_scores):
                    intent.semantic_scores.append(spec)

        # Image predicates (only when the query mentions posters/images).
        if words & _IMAGE_NOUNS:
            for trigger, (concept, keep) in _IMAGE_CONCEPT_TRIGGERS.items():
                if trigger in words:
                    if not any(p.concept == concept for p in intent.image_predicates):
                        intent.image_predicates.append(ImagePredicateSpec(
                            name=trigger, concept=concept, mode="filter", keep_if_true=keep))

        # Relational filters.
        for match in _AFTER_RE.finditer(text):
            intent.relational_filters.append(RelationalFilterSpec("year", ">", int(match.group(1))))
        for match in _BEFORE_RE.finditer(text):
            intent.relational_filters.append(RelationalFilterSpec("year", "<", int(match.group(1))))

        # Corrections: the only correction family the reproduction models is
        # the paper's "I prefer more recent movies when scoring".
        for correction in corrections:
            lowered = correction.lower()
            if any(term in lowered for term in ("recent", "newer", "new release", "later")):
                intent.include_recency = True
                intent.notes.append("user asked to include recency in the score")

        # Score weights: mirror the paper's 0.7 / 0.3 split when recency joins
        # a single semantic score; equal weights otherwise.
        primary = [s.name for s in intent.semantic_scores]
        if intent.include_recency:
            if len(primary) == 1:
                intent.score_weights = {primary[0]: 0.7, "recency_score": 0.3}
            else:
                share = 1.0 / (len(primary) + 1) if primary else 1.0
                intent.score_weights = {name: share for name in primary}
                intent.score_weights["recency_score"] = share
        elif primary:
            share = 1.0 / len(primary)
            intent.score_weights = {name: share for name in primary}

        # Residual ambiguity bookkeeping.
        for report in self.detect_ambiguity(nl_query, resolved_terms=list(clarifications)):
            intent.ambiguous_terms.append(report.term)

        completion = (
            f"scores={[s.name for s in intent.semantic_scores]} "
            f"image={[p.name for p in intent.image_predicates]} "
            f"filters={[(f.column, f.op, f.value) for f in intent.relational_filters]} "
            f"ranking={intent.ranking} recency={intent.include_recency}"
        )
        prompt = nl_query + " " + " ".join(clarifications.values()) + " " + " ".join(corrections)
        self._charge(prompt, completion, purpose)
        return intent

    def _is_image_scoped(self, query_text: str, trigger: str) -> bool:
        """Whether a trigger word refers to the poster/image rather than the plot.

        A crude window check: the trigger is image-scoped when an image noun
        appears within a few words before it ("the poster should be boring").
        """
        tokens = tokenize(query_text)
        positions = [i for i, t in enumerate(tokens) if t == trigger]
        for position in positions:
            window = tokens[max(0, position - 5):position] + tokens[position + 1:position + 4]
            if set(window) & _IMAGE_NOUNS:
                return True
        return False

    # -- dependency-pattern classification (used for lineage) ---------------------------
    def classify_dependency_pattern(self, function_description: str,
                                    purpose: str = "dependency_classification") -> str:
        """Classify a function's dependency pattern for lineage recording.

        Returns one of ``one_to_one``, ``one_to_many``, ``many_to_one``, or
        ``many_to_many`` (paper Section 3, provenance model).
        """
        text = function_description.lower()
        wide_markers = ("join", "aggregate", "group", "sort", "rank", "combine tables",
                        "merge tables", "count", "sum over", "average over")
        expand_markers = ("explode", "split into", "one row per", "unnest", "extract entities",
                          "extract objects")
        if any(marker in text for marker in wide_markers):
            pattern = "many_to_many" if "join" in text or "merge" in text or "sort" in text else "many_to_one"
        elif any(marker in text for marker in expand_markers):
            pattern = "one_to_many"
        else:
            pattern = "one_to_one"
        self._charge(function_description, pattern, purpose)
        return pattern

    # -- semantic judgement (critic / monitor) --------------------------------------------
    def judge_output(self, description: str, input_sample: Sequence[Dict[str, Any]],
                     output_sample: Sequence[Dict[str, Any]],
                     purpose: str = "semantic_judgement") -> Tuple[bool, str]:
        """Judge whether a function's output plausibly matches its description.

        Returns ``(ok, hint)``.  The checks are the ones the paper's examples
        call for: a recency score that decreases with the release year, a
        constant score column, an empty output from a non-empty input, and a
        score column outside [0, 1].
        """
        hint = ""
        ok = True
        lowered = description.lower()
        if input_sample and not output_sample:
            ok, hint = False, "the function produced no output for non-empty input"
        score_columns = [key for key in (output_sample[0].keys() if output_sample else [])
                         if key.endswith("_score") or key in ("score", "final_score")]
        for column in score_columns:
            values = [row.get(column) for row in output_sample if row.get(column) is not None]
            if not values:
                continue
            if any(isinstance(v, (int, float)) and (v < -0.001 or v > 1.001) for v in values):
                ok, hint = False, f"column {column!r} has values outside [0, 1]"
            if len(values) >= 3 and len({round(float(v), 6) for v in values}) == 1:
                ok, hint = False, f"column {column!r} is constant across sampled rows"
        if "recency" in lowered and output_sample:
            # Higher year must not get a lower recency score.
            pairs = [(row.get("year"), row.get("recency_score")) for row in output_sample
                     if row.get("year") is not None and row.get("recency_score") is not None]
            for (year_a, score_a) in pairs:
                for (year_b, score_b) in pairs:
                    if year_a > year_b and score_a < score_b - 1e-9:
                        ok, hint = False, ("recency_score decreases as year increases; "
                                           "the score appears to be reversed")
                        break
        self._charge(description + repr(input_sample[:2]) + repr(output_sample[:2]),
                     f"ok={ok} hint={hint}", purpose)
        return ok, hint

    # -- text generation (sketches, explanations) -------------------------------------------
    def render_text(self, template: str, purpose: str = "text_generation", **fields: Any) -> str:
        """Render a text template, charging generation tokens for the output."""
        text = template.format(**fields)
        self._charge(template + repr(fields), text, purpose)
        return text

    def complete(self, prompt: str, purpose: str = "freeform_completion") -> str:
        """A generic completion entry point.

        Routes a handful of known prompt shapes (keyword requests, clarification
        questions) and otherwise echoes a short acknowledgement.  Exists so that
        code written against a ``complete()``-style API keeps working.
        """
        lowered = prompt.lower()
        if "keyword" in lowered:
            concept = self._resolve_concept(prompt) or "excitement"
            completion = ", ".join(self.lexicon.terms_for(concept)[: self.keyword_count])
        elif "clarif" in lowered or "ambiguous" in lowered:
            reports = self.detect_ambiguity(prompt)
            completion = reports[0].question if reports else "The request appears unambiguous."
        else:
            completion = "Acknowledged: " + prompt[:120]
        self._charge(prompt, completion, purpose)
        return completion
