"""Experiment T2 (paper Table 2): text semantic-graph population from plot documents.

Regenerates the relational representation of text content -- Entities,
Mentions, Relationships, Attributes, Texts -- for the whole corpus, checking
the schema and the entity-resolution invariants the paper describes (multiple
mentions, including pronouns and bare surnames, resolving to one entity id).
"""

from repro.datamodel.lineage import LineageStore
from repro.datamodel.text_graph import populate_text_graph


def test_table2_text_graph_population(benchmark, bench_corpus, bench_models):
    plots = bench_corpus.to_tables()["film_plot"]

    def populate():
        lineage = LineageStore()
        parent = lineage.record_source("file://data/mmqa/film_plot.json")
        return populate_text_graph(plots.rows, bench_models,
                                   lineage=lineage, parent_lid=parent)

    text = benchmark(populate)

    # Table 2 schema shape.
    assert text.entities.column_names() == ["did", "eid", "lid", "cid", "canonical"]
    assert text.mentions.column_names() == [
        "did", "sid", "mid", "lid", "eid", "span_1", "span_2", "surface"]
    assert text.relationships.column_names() == [
        "did", "sid", "rid", "lid", "eid_i", "pid", "eid_j"]

    assert len(text.texts) == len(bench_corpus)
    # Entity resolution: mentions outnumber entities (coreference collapses them).
    assert len(text.mentions) > len(text.entities)
    # The flagship document resolves "David Merrill" / "Merrill" / pronouns to
    # one person entity with several mentions.
    guilty_did = bench_corpus.by_title("Guilty by Suspicion").document_id
    person_rows = [row for row in text.entities
                   if row["did"] == guilty_did and row["cid"] == "person"]
    merrill = [row for row in person_rows if row["canonical"] == "David Merrill"]
    assert merrill
    merrill_mentions = [row for row in text.mentions if row["eid"] == merrill[0]["eid"]]
    assert len(merrill_mentions) >= 3

    benchmark.extra_info["entities_rows"] = len(text.entities)
    benchmark.extra_info["mentions_rows"] = len(text.mentions)
    benchmark.extra_info["relationships_rows"] = len(text.relationships)
    benchmark.extra_info["documents"] = len(text.texts)

    print("\n[T2] text semantic-graph views populated from", len(bench_corpus), "documents")
    for name, table in text.as_dict().items():
        print(f"  {name:<24} {len(table):>5} rows")


def test_table2_single_document_extraction(benchmark, bench_corpus, bench_models):
    """Per-document extraction latency (the unit the paper's NER pays)."""
    plot = bench_corpus.by_title("Guilty by Suspicion").plot
    result = benchmark(bench_models.ner.extract, plot)
    assert result.entities_of_class("person")
    assert result.event_terms()
