"""Rule-based entity, mention, relationship, and attribute extraction.

This is the model that populates the paper's *text semantic graph* (Table 2):
entities with document-scoped ids, mentions with character spans, pronoun
coreference back to the nearest person, relationships from sentence-level
co-occurrence, and attributes mined from simple appositive patterns.  Event
terms from the lexicon (``gun``, ``explosion``, ``threat``, ...) are also
extracted as entities of class ``event``, which is what the generated
excitement-scoring functions match keywords against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.models.calls import CallSpec, declare
from repro.models.cost import CostMeter
from repro.models.lexicon import DEFAULT_LEXICON, Lexicon
from repro.utils.text import estimate_tokens, sentences

_CAPITALIZED_NAME_RE = re.compile(r"\b([A-Z][a-z]+(?:\s+[A-Z][a-z]+)+)\b")
_PRONOUNS = {"he", "she", "him", "her", "his", "hers"}
# Role nouns recognized by the appositive-attribute rule
# ("David Merrill, a celebrated director ..." -> role = "celebrated director").
_ROLE_WORDS = (
    "director", "broker", "writer", "producer", "doctor", "lawyer", "detective",
    "agent", "counselor", "scientist", "artist", "actor", "actress", "nurse",
    "teacher", "journalist", "officer",
)

# Event-ish concepts whose member terms become "event" entities.
_EVENT_CONCEPTS = ("excitement", "calm", "romance", "comedy", "science", "healthcare")


@dataclass
class ExtractedMention:
    """One mention of an entity in a document."""

    mention_id: int
    sentence_id: int
    entity_id: int
    span: Tuple[int, int]
    surface: str


@dataclass
class ExtractedEntity:
    """One resolved entity in a document."""

    entity_id: int
    class_name: str           # "person" or "event"
    canonical: str
    mentions: List[ExtractedMention] = field(default_factory=list)


@dataclass
class ExtractedRelationship:
    """A relationship between two entities in a document."""

    relationship_id: int
    subject_entity_id: int
    predicate: str
    object_entity_id: int
    sentence_id: int


@dataclass
class ExtractedAttribute:
    """A key/value attribute attached to an entity."""

    entity_id: int
    key: str
    value: str
    sentence_id: int


@dataclass
class ExtractionResult:
    """Everything extracted from one document."""

    entities: List[ExtractedEntity] = field(default_factory=list)
    mentions: List[ExtractedMention] = field(default_factory=list)
    relationships: List[ExtractedRelationship] = field(default_factory=list)
    attributes: List[ExtractedAttribute] = field(default_factory=list)

    def entities_of_class(self, class_name: str) -> List[ExtractedEntity]:
        """Entities of one class ("person", "event")."""
        return [e for e in self.entities if e.class_name == class_name]

    def event_terms(self) -> List[str]:
        """Canonical names of all extracted event entities."""
        return [e.canonical for e in self.entities_of_class("event")]


def _completion_digest(result: ExtractionResult) -> str:
    """The compact structured output a real extraction call would return.

    Billing is based on this JSON-shaped digest — id/class/canonical per
    entity, id tuples per mention/relationship/attribute — rather than the
    Python ``repr`` of the dataclasses, whose repeated field names inflated
    the completion to ~10x the size of the input document.
    """
    lines = [f'{{"id":{e.entity_id},"c":"{e.class_name}","n":"{e.canonical}"}}'
             for e in result.entities]
    lines += [f'[{m.sentence_id},{m.mention_id},{m.entity_id},'
              f'{m.span[0]},{m.span[1]},"{m.surface}"]'
              for m in result.mentions]
    lines += [f'[{r.sentence_id},{r.relationship_id},{r.subject_entity_id},'
              f'"{r.predicate}",{r.object_entity_id}]'
              for r in result.relationships]
    lines += [f'[{a.sentence_id},{a.entity_id},"{a.key}","{a.value}"]'
              for a in result.attributes]
    return ",".join(lines)


class EntityExtractor:
    """Rule-based text-graph extraction with pronoun coreference."""

    #: Prompt tokens of the extraction schema and few-shot preamble a serial
    #: request re-sends with *every* document — and a batched invocation
    #: sends once for the whole batch, which is exactly what makes vectorized
    #: extraction sub-linear (see :mod:`repro.models.batching`).  Mirrors
    #: the VLM's per-image ``IMAGE_PROMPT_TOKENS`` constant: the serial
    #: prompt is ``BATCH_OVERHEAD_TOKENS + tokens(document)``.
    BATCH_OVERHEAD_TOKENS = 640

    #: The charged entry points (see :mod:`repro.models.calls`).
    CALLS = declare(CallSpec("extract", "text_graph_extraction"))

    def __init__(self, cost_meter: Optional[CostMeter] = None, lexicon: Optional[Lexicon] = None,
                 name: str = "ner:rule-coref"):
        self.cost_meter = cost_meter
        self.lexicon = lexicon or DEFAULT_LEXICON
        self.name = name

    def _charge(self, text: str, result: "ExtractionResult", purpose: str) -> None:
        if self.cost_meter is not None:
            self.cost_meter.record(
                self.name, purpose,
                prompt_tokens=self.BATCH_OVERHEAD_TOKENS + estimate_tokens(text),
                completion_tokens=estimate_tokens(_completion_digest(result)))

    def extract(self, text: str, purpose: str = "text_graph_extraction") -> ExtractionResult:
        """Extract the full text semantic graph from one document."""
        result = ExtractionResult()
        if not text:
            return result
        sentence_list = sentences(text)
        entity_by_canonical: Dict[str, ExtractedEntity] = {}
        next_entity_id = 0
        next_mention_id = 0
        next_relationship_id = 0
        offset = 0
        last_person_by_sentence: Optional[ExtractedEntity] = None

        for sentence_id, sentence in enumerate(sentence_list):
            sentence_start = text.find(sentence, offset)
            if sentence_start < 0:
                sentence_start = offset
            offset = sentence_start + len(sentence)
            persons_in_sentence: List[ExtractedEntity] = []

            # Person entities: capitalized name sequences.
            covered_spans = []
            for match in _CAPITALIZED_NAME_RE.finditer(sentence):
                surface = match.group(1)
                canonical = self._canonical_person(surface, entity_by_canonical)
                entity = entity_by_canonical.get(canonical)
                if entity is None:
                    entity = ExtractedEntity(next_entity_id, "person", canonical)
                    entity_by_canonical[canonical] = entity
                    result.entities.append(entity)
                    next_entity_id += 1
                covered_spans.append((match.start(1), match.end(1)))
                mention = ExtractedMention(
                    mention_id=next_mention_id,
                    sentence_id=sentence_id,
                    entity_id=entity.entity_id,
                    span=(sentence_start + match.start(1), sentence_start + match.end(1)),
                    surface=surface,
                )
                next_mention_id += 1
                entity.mentions.append(mention)
                result.mentions.append(mention)
                persons_in_sentence.append(entity)
                last_person_by_sentence = entity

            # Bare surnames / first names ("Merrill becomes a fugitive ..."):
            # single capitalized tokens that match part of a known person's
            # canonical name resolve to that entity (entity resolution).
            for match in re.finditer(r"\b([A-Z][a-z]+)\b", sentence):
                start, end = match.start(1), match.end(1)
                if any(s <= start < e for s, e in covered_spans):
                    continue
                surface = match.group(1)
                resolved = None
                for canonical, entity in entity_by_canonical.items():
                    if entity.class_name != "person":
                        continue
                    parts = canonical.split()
                    if surface in parts and canonical != surface:
                        resolved = entity
                        break
                if resolved is None:
                    continue
                mention = ExtractedMention(
                    mention_id=next_mention_id,
                    sentence_id=sentence_id,
                    entity_id=resolved.entity_id,
                    span=(sentence_start + start, sentence_start + end),
                    surface=surface,
                )
                next_mention_id += 1
                resolved.mentions.append(mention)
                result.mentions.append(mention)
                persons_in_sentence.append(resolved)
                last_person_by_sentence = resolved

            # Pronoun coreference to the most recent person entity.
            for match in re.finditer(r"\b([A-Za-z]+)\b", sentence):
                word = match.group(1)
                if word.lower() in _PRONOUNS and last_person_by_sentence is not None:
                    mention = ExtractedMention(
                        mention_id=next_mention_id,
                        sentence_id=sentence_id,
                        entity_id=last_person_by_sentence.entity_id,
                        span=(sentence_start + match.start(1), sentence_start + match.end(1)),
                        surface=word,
                    )
                    next_mention_id += 1
                    last_person_by_sentence.mentions.append(mention)
                    result.mentions.append(mention)

            # Event entities: lexicon terms found in this sentence.
            for concept in _EVENT_CONCEPTS:
                for term in self.lexicon.matching_terms(sentence, concept):
                    canonical = term
                    entity = entity_by_canonical.get(canonical)
                    if entity is None:
                        entity = ExtractedEntity(next_entity_id, "event", canonical)
                        entity_by_canonical[canonical] = entity
                        result.entities.append(entity)
                        next_entity_id += 1
                    position = sentence.lower().find(term)
                    span_start = sentence_start + max(position, 0)
                    mention = ExtractedMention(
                        mention_id=next_mention_id,
                        sentence_id=sentence_id,
                        entity_id=entity.entity_id,
                        span=(span_start, span_start + len(term)),
                        surface=term,
                    )
                    next_mention_id += 1
                    entity.mentions.append(mention)
                    result.mentions.append(mention)

            # Relationships: persons co-occurring in a sentence, and persons
            # linked to the events of that sentence.
            events_in_sentence = [
                entity_by_canonical[t]
                for concept in _EVENT_CONCEPTS
                for t in self.lexicon.matching_terms(sentence, concept)
                if t in entity_by_canonical
            ]
            for i in range(len(persons_in_sentence)):
                for j in range(i + 1, len(persons_in_sentence)):
                    result.relationships.append(ExtractedRelationship(
                        next_relationship_id, persons_in_sentence[i].entity_id,
                        "appears_with", persons_in_sentence[j].entity_id, sentence_id))
                    next_relationship_id += 1
            for person in persons_in_sentence[:1]:
                for event in events_in_sentence:
                    result.relationships.append(ExtractedRelationship(
                        next_relationship_id, person.entity_id, "involved_in",
                        event.entity_id, sentence_id))
                    next_relationship_id += 1

            # Attributes: appositive roles, e.g. "Merrill, a celebrated director ...".
            for person in persons_in_sentence:
                surface = person.canonical.split()[-1]
                pattern = re.compile(
                    re.escape(surface) + r",\s+(?:a|an|the)\s+((?:[a-z\-]+\s+){0,2}(?:" +
                    "|".join(_ROLE_WORDS) + r"))\b")
                role_match = pattern.search(sentence)
                if role_match:
                    result.attributes.append(ExtractedAttribute(
                        person.entity_id, "role", role_match.group(1).strip(), sentence_id))

        self._charge(text, result, purpose)
        return result

    def _canonical_person(self, surface: str, existing: Dict[str, ExtractedEntity]) -> str:
        """Resolve a surface name to a canonical entity key.

        A single-token surname that suffixes an existing canonical name maps to
        that entity ("Merrill" -> "David Merrill"); otherwise the surface form
        becomes its own canonical name.
        """
        for canonical, entity in existing.items():
            if entity.class_name != "person":
                continue
            if canonical == surface:
                return canonical
            if canonical.endswith(" " + surface) or canonical.startswith(surface + " "):
                return canonical
        return surface
