"""Experiment T1 (paper Table 1): scene-graph view population from poster images.

Regenerates the relational representation of image content -- Objects,
Relationships, Attributes, Frames -- for the whole corpus and reports the
per-view row counts plus the populated schema, i.e. the artifact Table 1
defines.  The benchmark measures the cost of one full view-population pass
through the simulated VLM.
"""

from repro.datamodel.lineage import LineageStore
from repro.datamodel.scene_graph import populate_scene_graph


def test_table1_scene_graph_population(benchmark, bench_corpus, bench_models):
    posters = bench_corpus.to_tables()["poster_images"]

    def populate():
        lineage = LineageStore()
        parent = lineage.record_source("file://data/mmqa/poster_images.json")
        return populate_scene_graph(posters.rows, bench_models,
                                    lineage=lineage, parent_lid=parent)

    scene = benchmark(populate)

    # Table 1 schema shape.
    assert scene.objects.column_names() == [
        "vid", "fid", "oid", "lid", "cid", "x_1", "y_1", "x_2", "y_2"]
    assert scene.relationships.column_names() == [
        "vid", "fid", "rid", "lid", "oid_i", "pid", "oid_j"]
    assert scene.attributes.column_names() == ["vid", "fid", "oid", "lid", "k", "v"]
    assert [c for c in scene.frames.column_names()[:3]] == ["vid", "fid", "lid"]

    # One frame per poster; objects within a small factor of the ground truth
    # (the VLM misses ~5% of objects by design).
    ground_truth_objects = sum(len(m.poster.objects) for m in bench_corpus)
    assert len(scene.frames) == len(bench_corpus)
    assert 0.8 * ground_truth_objects <= len(scene.objects) <= ground_truth_objects

    benchmark.extra_info["objects_rows"] = len(scene.objects)
    benchmark.extra_info["relationships_rows"] = len(scene.relationships)
    benchmark.extra_info["attributes_rows"] = len(scene.attributes)
    benchmark.extra_info["frames_rows"] = len(scene.frames)

    print("\n[T1] scene-graph views populated from", len(bench_corpus), "posters")
    for name, table in scene.as_dict().items():
        print(f"  {name:<24} {len(table):>5} rows")


def test_table1_single_image_extraction(benchmark, bench_corpus, bench_models):
    """Per-image scene-graph extraction latency (the unit the paper's VLM pays)."""
    poster = bench_corpus.by_title("Guilty by Suspicion").poster
    graph = benchmark(bench_models.vlm.extract_scene_graph, poster)
    assert graph["objects"] is not None
    assert 0.0 <= graph["saturation"] <= 1.0
