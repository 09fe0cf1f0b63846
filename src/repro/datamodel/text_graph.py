"""Text content as a semantic graph (paper Table 2).

Documents are represented by five relational views:

* ``Entities(did, eid, lid, cid)``
* ``Mentions(did, sid, mid, lid, eid, span_1, span_2)``
* ``Relationships(did, sid, rid, lid, eid_i, pid, eid_j)``
* ``Attributes(did, sid, eid, lid, k, v)``
* ``Texts(did, lid, chars)``

Entity ids are unique within the corpus (the extractor produces document-local
ids which are offset per document here), and mentions carry character spans so
that explanations can point back into the original text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.datamodel.lineage import LineageStore
from repro.models.base import ModelSuite
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType

ENTITIES_SCHEMA = Schema([
    Column("did", DataType.INTEGER, nullable=False, description="document id"),
    Column("eid", DataType.INTEGER, nullable=False, description="corpus-unique entity id"),
    Column("lid", DataType.INTEGER, description="lineage id"),
    Column("cid", DataType.TEXT, description="entity class (person, event, ...)"),
    Column("canonical", DataType.TEXT, description="canonical surface form"),
])

MENTIONS_SCHEMA = Schema([
    Column("did", DataType.INTEGER, nullable=False),
    Column("sid", DataType.INTEGER, nullable=False, description="sentence id"),
    Column("mid", DataType.INTEGER, nullable=False, description="mention id"),
    Column("lid", DataType.INTEGER),
    Column("eid", DataType.INTEGER, description="entity this mention resolves to"),
    Column("span_1", DataType.INTEGER, description="start character offset"),
    Column("span_2", DataType.INTEGER, description="end character offset"),
    Column("surface", DataType.TEXT, description="mention surface text"),
])

TEXT_RELATIONSHIPS_SCHEMA = Schema([
    Column("did", DataType.INTEGER, nullable=False),
    Column("sid", DataType.INTEGER, nullable=False),
    Column("rid", DataType.INTEGER, nullable=False),
    Column("lid", DataType.INTEGER),
    Column("eid_i", DataType.INTEGER, description="subject entity"),
    Column("pid", DataType.TEXT, description="relationship predicate"),
    Column("eid_j", DataType.INTEGER, description="object entity"),
])

TEXT_ATTRIBUTES_SCHEMA = Schema([
    Column("did", DataType.INTEGER, nullable=False),
    Column("sid", DataType.INTEGER, nullable=False),
    Column("eid", DataType.INTEGER, nullable=False),
    Column("lid", DataType.INTEGER),
    Column("k", DataType.TEXT),
    Column("v", DataType.TEXT),
])

TEXTS_SCHEMA = Schema([
    Column("did", DataType.INTEGER, nullable=False),
    Column("lid", DataType.INTEGER),
    Column("chars", DataType.TEXT, description="raw document text"),
])


@dataclass
class TextGraphTables:
    """The five text-graph views for a corpus of documents."""

    entities: Table
    mentions: Table
    relationships: Table
    attributes: Table
    texts: Table

    def as_dict(self) -> Dict[str, Table]:
        """Name -> table mapping, using the catalog-facing view names."""
        return {
            "text_entities": self.entities,
            "text_mentions": self.mentions,
            "text_relationships": self.relationships,
            "text_attributes": self.attributes,
            "text_documents": self.texts,
        }

    def entities_for(self, did: int, class_name: Optional[str] = None) -> List[Dict[str, object]]:
        """All entity rows of one document, optionally filtered by class."""
        return [dict(row) for row in self.entities
                if row["did"] == did and (class_name is None or row["cid"] == class_name)]

    def event_terms_for(self, did: int) -> List[str]:
        """Canonical names of the event entities of one document."""
        return [row["canonical"] for row in self.entities_for(did, "event")]


def populate_text_graph(document_rows: Iterable[Dict[str, object]], models: ModelSuite,
                        lineage: Optional[LineageStore] = None,
                        parent_lid: Optional[int] = None,
                        func_id: str = "populate_text_graph",
                        ver_id: int = 1,
                        did_column: str = "did",
                        text_column: str = "plot",
                        batch_size: int = 32) -> TextGraphTables:
    """Populate the text-graph views from document rows.

    ``document_rows`` typically come from the ``film_plot`` base relation; the
    text column holds the raw document and ``did`` its document id.  Entity
    ids are made corpus-unique by offsetting the extractor's document-local
    ids.

    Extraction is issued as one batched call to the suite's NER model per
    ``batch_size`` documents (sub-linear token cost through
    :meth:`~repro.models.base.ModelSuite.call_many`, so the suite must be
    routed); ``1`` prices every document as a serial call.
    Emitted rows — and their lineage entries — are identical at every size.
    """
    entities = Table("text_entities", Schema(list(ENTITIES_SCHEMA.columns)),
                     description="Entities resolved from plot documents (Table 2).")
    mentions = Table("text_mentions", Schema(list(MENTIONS_SCHEMA.columns)),
                     description="Entity mentions with character spans.")
    relationships = Table("text_relationships", Schema(list(TEXT_RELATIONSHIPS_SCHEMA.columns)),
                          description="Relationships between entities within a document.")
    attributes = Table("text_attributes", Schema(list(TEXT_ATTRIBUTES_SCHEMA.columns)),
                       description="Entity attributes in key/value form.")
    texts = Table("text_documents", Schema(list(TEXTS_SCHEMA.columns)),
                  description="Raw document text view.")

    def next_lid() -> Optional[int]:
        if lineage is None or not lineage.enabled:
            return None
        if lineage.row_tracking_enabled:
            return lineage.record_row(func_id, ver_id, parent_lid)
        return None

    rows = list(document_rows)
    documents = [row.get(text_column) or "" for row in rows]
    extractions = models.call_many("ner", "extract",
                                   [((text,), {}) for text in documents],
                                   batch_size=max(1, int(batch_size)))

    entity_id_offset = 0
    mention_id_offset = 0
    for row, text, extraction in zip(rows, documents, extractions):
        did = row.get(did_column)
        local_to_global = {}
        for entity in extraction.entities:
            global_eid = entity.entity_id + entity_id_offset
            local_to_global[entity.entity_id] = global_eid
            entities.insert({
                "did": did, "eid": global_eid, "lid": next_lid(),
                "cid": entity.class_name, "canonical": entity.canonical,
            })
        for mention in extraction.mentions:
            mentions.insert({
                "did": did, "sid": mention.sentence_id,
                "mid": mention.mention_id + mention_id_offset, "lid": next_lid(),
                "eid": local_to_global.get(mention.entity_id),
                "span_1": mention.span[0], "span_2": mention.span[1],
                "surface": mention.surface,
            })
        for relationship in extraction.relationships:
            relationships.insert({
                "did": did, "sid": relationship.sentence_id, "rid": relationship.relationship_id,
                "lid": next_lid(),
                "eid_i": local_to_global.get(relationship.subject_entity_id),
                "pid": relationship.predicate,
                "eid_j": local_to_global.get(relationship.object_entity_id),
            })
        for attribute in extraction.attributes:
            attributes.insert({
                "did": did, "sid": attribute.sentence_id,
                "eid": local_to_global.get(attribute.entity_id), "lid": next_lid(),
                "k": attribute.key, "v": attribute.value,
            })
        texts.insert({"did": did, "lid": next_lid(), "chars": text})
        entity_id_offset += len(extraction.entities)
        mention_id_offset += len(extraction.mentions)

    return TextGraphTables(entities=entities, mentions=mentions, relationships=relationships,
                           attributes=attributes, texts=texts)
