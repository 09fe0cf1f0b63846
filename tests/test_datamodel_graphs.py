"""Unit tests for scene-graph and text-graph view population (Tables 1 and 2)."""

import pytest

from repro.datamodel.lineage import LINEAGE_LEVEL_TABLE, LineageStore
from repro.datamodel.scene_graph import populate_scene_graph
from repro.datamodel.text_graph import populate_text_graph
from repro.datamodel.views import ViewPopulator
from repro.gateway.gateway import ModelGateway
from repro.models.base import ModelSuite
from repro.relational.catalog import Catalog


@pytest.fixture()
def perfect_models():
    """Noise-free models so counts are exact."""
    return ModelSuite.create(seed=1, vlm_error_rate=0.0).routed(ModelGateway.pass_through(), "test")


class TestSceneGraphPopulation:
    def test_objects_match_ground_truth(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        scene = populate_scene_graph(posters.rows, perfect_models)
        expected_objects = sum(len(m.poster.objects) for m in corpus)
        assert len(scene.objects) == expected_objects
        assert len(scene.frames) == len(corpus)
        assert scene.objects.schema.column_names() == [
            "vid", "fid", "oid", "lid", "cid", "x_1", "y_1", "x_2", "y_2"]

    def test_attributes_and_relationships(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        scene = populate_scene_graph(posters.rows, perfect_models)
        # Every object carries a color attribute in the synthetic corpus.
        assert len(scene.attributes) == len(scene.objects)
        for row in scene.relationships:
            assert row["pid"]
            assert row["oid_i"] != row["oid_j"]

    def test_frame_statistics_distinguish_styles(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        scene = populate_scene_graph(posters.rows, perfect_models)
        guilty = corpus.by_title("Guilty by Suspicion")
        vivid = next(m for m in corpus if not m.gt_boring_poster)
        frames = {row["vid"]: row for row in scene.frames}
        assert frames[vivid.movie_id]["saturation"] > frames[guilty.movie_id]["saturation"]

    def test_helper_lookups(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        scene = populate_scene_graph(posters.rows, perfect_models)
        guilty = corpus.by_title("Guilty by Suspicion")
        assert len(scene.objects_for(guilty.movie_id)) == len(guilty.poster.objects)
        assert scene.class_names_for(guilty.movie_id) == [o.class_name
                                                          for o in guilty.poster.objects]

    def test_row_level_lineage_recorded(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        lineage = LineageStore()
        parent = lineage.record_source("file://posters")
        scene = populate_scene_graph(posters.rows, perfect_models,
                                     lineage=lineage, parent_lid=parent)
        lids = [row["lid"] for row in scene.objects]
        assert all(lid is not None for lid in lids)
        assert lineage.parents_of(lids[0]) == [parent]

    def test_table_level_lineage_skips_row_lids(self, corpus, perfect_models):
        posters = corpus.to_tables()["poster_images"]
        lineage = LineageStore(level=LINEAGE_LEVEL_TABLE)
        scene = populate_scene_graph(posters.rows, perfect_models,
                                     lineage=lineage, parent_lid=None)
        assert all(row["lid"] is None for row in scene.objects)

    def test_rows_without_images_are_skipped(self, perfect_models):
        rows = [{"movie_id": 1, "image": None, "image_uri": "x"}]
        scene = populate_scene_graph(rows, perfect_models)
        assert len(scene.frames) == 0


class TestTextGraphPopulation:
    def test_entities_and_documents(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        text = populate_text_graph(plots.rows, perfect_models)
        assert len(text.texts) == len(corpus)
        assert len(text.entities) > len(corpus)  # several entities per document
        assert text.entities.schema.column_names() == ["did", "eid", "lid", "cid", "canonical"]

    def test_entity_ids_unique_across_corpus(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        text = populate_text_graph(plots.rows, perfect_models)
        eids = [row["eid"] for row in text.entities]
        assert len(eids) == len(set(eids))

    def test_mentions_reference_existing_entities(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        text = populate_text_graph(plots.rows, perfect_models)
        entity_ids = {row["eid"] for row in text.entities}
        assert all(row["eid"] in entity_ids for row in text.mentions)

    def test_event_terms_for_guilty(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        text = populate_text_graph(plots.rows, perfect_models)
        guilty = corpus.by_title("Guilty by Suspicion")
        events = set(text.event_terms_for(guilty.document_id))
        assert {"accused", "threat", "interrogation"} & events

    def test_relationships_reference_entities(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        text = populate_text_graph(plots.rows, perfect_models)
        entity_ids = {row["eid"] for row in text.entities}
        for row in text.relationships:
            assert row["eid_i"] in entity_ids and row["eid_j"] in entity_ids

    def test_lineage_rows_recorded(self, corpus, perfect_models):
        plots = corpus.to_tables()["film_plot"]
        lineage = LineageStore()
        parent = lineage.record_source("file://plots")
        text = populate_text_graph(plots.rows, perfect_models,
                                   lineage=lineage, parent_lid=parent)
        assert all(row["lid"] is not None for row in text.entities)


class TestViewPopulator:
    def test_load_corpus_registers_everything(self, corpus, perfect_models):
        catalog = Catalog()
        lineage = LineageStore()
        report = ViewPopulator(perfect_models, catalog, lineage).load_corpus(corpus)
        expected_views = {"image_objects", "image_relationships", "image_attributes",
                          "image_frames", "text_entities", "text_mentions",
                          "text_relationships", "text_attributes", "text_documents"}
        assert set(report.view_tables) == expected_views
        assert set(report.base_tables) == {"movie_table", "film_plot", "poster_images"}
        for name in expected_views | set(report.base_tables):
            assert catalog.has_table(name)
        assert "view population report" in report.describe()

    def test_base_tables_have_source_lineage(self, corpus, perfect_models):
        catalog = Catalog()
        lineage = LineageStore()
        report = ViewPopulator(perfect_models, catalog, lineage).load_corpus(corpus)
        movie_lid = report.base_tables["movie_table"]
        ancestors = lineage.ancestors_of(movie_lid)
        sources = [lineage.entries_for(a)[0].src_uri for a in ancestors]
        assert any(uri and uri.startswith("file://data/mmqa/") for uri in sources)

    def test_skip_view_population(self, corpus, perfect_models):
        catalog = Catalog()
        report = ViewPopulator(perfect_models, catalog, LineageStore()).load_corpus(
            corpus, populate_views=False)
        assert report.view_tables == {}
        assert not catalog.has_table("image_objects")
