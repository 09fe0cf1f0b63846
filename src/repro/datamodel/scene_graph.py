"""Images and videos as scene graphs (paper Table 1).

Visual content is represented by four relational views:

* ``Objects(vid, fid, oid, lid, cid, x_1, y_1, x_2, y_2)``
* ``Relationships(vid, fid, rid, lid, oid_i, pid, oid_j)``
* ``Attributes(vid, fid, oid, lid, k, v)``
* ``Frames(vid, fid, lid, pixels)``

Images are treated as single-frame videos (``fid = 0``).  ``cid`` and ``pid``
hold the class / predicate *names* rather than integer label ids -- the paper
uses ids into a label vocabulary, but names keep the reproduction's lineage
explanations readable without changing any semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.datamodel.lineage import LineageStore
from repro.models.base import ModelSuite
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType

OBJECTS_SCHEMA = Schema([
    Column("vid", DataType.INTEGER, nullable=False, description="video/image id"),
    Column("fid", DataType.INTEGER, nullable=False, description="frame id (0 for images)"),
    Column("oid", DataType.INTEGER, nullable=False, description="object id within the frame"),
    Column("lid", DataType.INTEGER, description="lineage id"),
    Column("cid", DataType.TEXT, description="object class"),
    Column("x_1", DataType.INTEGER), Column("y_1", DataType.INTEGER),
    Column("x_2", DataType.INTEGER), Column("y_2", DataType.INTEGER),
])

VISUAL_RELATIONSHIPS_SCHEMA = Schema([
    Column("vid", DataType.INTEGER, nullable=False),
    Column("fid", DataType.INTEGER, nullable=False),
    Column("rid", DataType.INTEGER, nullable=False, description="relationship id within the frame"),
    Column("lid", DataType.INTEGER),
    Column("oid_i", DataType.INTEGER, description="subject object id"),
    Column("pid", DataType.TEXT, description="relationship predicate"),
    Column("oid_j", DataType.INTEGER, description="object object id"),
])

VISUAL_ATTRIBUTES_SCHEMA = Schema([
    Column("vid", DataType.INTEGER, nullable=False),
    Column("fid", DataType.INTEGER, nullable=False),
    Column("oid", DataType.INTEGER, nullable=False),
    Column("lid", DataType.INTEGER),
    Column("k", DataType.TEXT, description="attribute key"),
    Column("v", DataType.TEXT, description="attribute value"),
])

FRAMES_SCHEMA = Schema([
    Column("vid", DataType.INTEGER, nullable=False),
    Column("fid", DataType.INTEGER, nullable=False),
    Column("lid", DataType.INTEGER),
    Column("pixels", DataType.BLOB, description="raw frame pixels"),
    Column("color_variance", DataType.FLOAT, description="pixel statistic used by classifiers"),
    Column("saturation", DataType.FLOAT),
    Column("coverage", DataType.FLOAT, description="fraction of the frame covered by objects"),
])


@dataclass
class SceneGraphTables:
    """The four scene-graph views for a collection of images."""

    objects: Table
    relationships: Table
    attributes: Table
    frames: Table

    def as_dict(self) -> Dict[str, Table]:
        """Name -> table mapping, using the catalog-facing view names."""
        return {
            "image_objects": self.objects,
            "image_relationships": self.relationships,
            "image_attributes": self.attributes,
            "image_frames": self.frames,
        }

    def objects_for(self, vid: int, fid: int = 0) -> List[Dict[str, object]]:
        """All object rows of one frame."""
        return [dict(row) for row in self.objects
                if row["vid"] == vid and row["fid"] == fid]

    def class_names_for(self, vid: int, fid: int = 0) -> List[str]:
        """Object class names of one frame (with duplicates)."""
        return [row["cid"] for row in self.objects_for(vid, fid)]


def populate_scene_graph(poster_rows: Iterable[Dict[str, object]], models: ModelSuite,
                         lineage: Optional[LineageStore] = None,
                         parent_lid: Optional[int] = None,
                         func_id: str = "populate_scene_graph",
                         ver_id: int = 1,
                         id_column: str = "movie_id",
                         image_column: str = "image",
                         batch_size: int = 32) -> SceneGraphTables:
    """Populate the scene-graph views from poster rows.

    Parameters
    ----------
    poster_rows:
        Rows containing an image payload column (``image``) and an id column
        (``movie_id``), typically the ``poster_images`` base relation.
    models:
        The model suite whose VLM extracts objects/relationships.
    lineage:
        When provided, each emitted row gets a row-level lineage entry whose
        parent is ``parent_lid`` (the poster table's lid) -- view population is
        a ``one_to_many`` function in the paper's taxonomy.
    batch_size:
        Scene-graph extraction is issued as one batched VLM call per this
        many posters (sub-linear token cost through
        :meth:`~repro.models.base.ModelSuite.call_many`, gateway-aware when
        the suite is routed).  ``1`` prices every poster as a serial call.
        Emitted rows — and their lineage entries — are identical at every
        size.
    """
    objects = Table("image_objects", Schema(list(OBJECTS_SCHEMA.columns)),
                    description="Scene-graph objects extracted from posters (Table 1).")
    relationships = Table("image_relationships", Schema(list(VISUAL_RELATIONSHIPS_SCHEMA.columns)),
                          description="Scene-graph relationships between poster objects.")
    attributes = Table("image_attributes", Schema(list(VISUAL_ATTRIBUTES_SCHEMA.columns)),
                       description="Scene-graph object attributes (key/value).")
    frames = Table("image_frames", Schema(list(FRAMES_SCHEMA.columns)),
                   description="Raw frame view with poster-level pixel statistics.")

    def next_lid() -> Optional[int]:
        if lineage is None or not lineage.enabled:
            return None
        if lineage.row_tracking_enabled:
            return lineage.record_row(func_id, ver_id, parent_lid)
        return None

    rows = [row for row in poster_rows if row.get(image_column) is not None]
    graphs = models.call_many("vlm", "extract_scene_graph",
                              [((row[image_column],), {}) for row in rows],
                              batch_size=max(1, int(batch_size)))

    for row, graph in zip(rows, graphs):
        vid = row.get(id_column)
        fid = 0
        for oid, obj in enumerate(graph["objects"]):
            x1, y1, x2, y2 = obj["bbox"]
            objects.insert({
                "vid": vid, "fid": fid, "oid": oid, "lid": next_lid(),
                "cid": obj["class_name"], "x_1": x1, "y_1": y1, "x_2": x2, "y_2": y2,
            })
            for key, value in obj.get("attributes", {}).items():
                attributes.insert({
                    "vid": vid, "fid": fid, "oid": oid, "lid": next_lid(),
                    "k": key, "v": str(value),
                })
        for rid, (subject, predicate, target) in enumerate(graph["relationships"]):
            relationships.insert({
                "vid": vid, "fid": fid, "rid": rid, "lid": next_lid(),
                "oid_i": subject, "pid": predicate, "oid_j": target,
            })
        frames.insert({
            "vid": vid, "fid": fid, "lid": next_lid(), "pixels": row[image_column],
            "color_variance": graph["color_variance"],
            "saturation": graph["saturation"],
            "coverage": graph["coverage"],
        })

    return SceneGraphTables(objects=objects, relationships=relationships,
                            attributes=attributes, frames=frames)
