"""The view populator: raw data in, relational semantic layer out.

The paper's Section 6 prototype "pre-writes the view-population function that
invokes GPT-4o and supplies schema information to KathDB as the first step".
:class:`ViewPopulator` is that step: it registers the raw base relations in the
catalog (recording their external ``src_uri`` in the lineage table), then
materializes the scene-graph and text-graph views with the simulated VLM/NER
models, recording a lineage entry for every populated row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.data.mmqa import MovieCorpus
from repro.datamodel.lineage import LineageStore
from repro.datamodel.scene_graph import SceneGraphTables, populate_scene_graph
from repro.datamodel.text_graph import TextGraphTables, populate_text_graph
from repro.models.base import ModelSuite
from repro.relational.catalog import Catalog
from repro.relational.table import Table


@dataclass
class PopulationReport:
    """What the populator loaded and materialized."""

    base_tables: Dict[str, int] = field(default_factory=dict)      # name -> table lid
    view_tables: Dict[str, int] = field(default_factory=dict)      # name -> table lid
    row_counts: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable summary."""
        lines = ["view population report"]
        for name, lid in self.base_tables.items():
            lines.append(f"  base  {name:<22} lid={lid:<5} rows={self.row_counts.get(name, 0)}")
        for name, lid in self.view_tables.items():
            lines.append(f"  view  {name:<22} lid={lid:<5} rows={self.row_counts.get(name, 0)}")
        return "\n".join(lines)


class ViewPopulator:
    """Loads a corpus into the catalog and materializes the modality views.

    ``batch_size`` vectorizes view population: scene-graph extraction and
    NER run as one batched model call per that many rows (sub-linear token
    cost through the routed suite's gateway, so every member still
    populates a shared cache).  ``1`` prices every row as a serial call.
    """

    def __init__(self, models: ModelSuite, catalog: Catalog, lineage: LineageStore,
                 batch_size: int = 32):
        self.models = models
        self.catalog = catalog
        self.lineage = lineage
        self.batch_size = max(1, int(batch_size))

    def load_corpus(self, corpus: MovieCorpus, populate_views: bool = True) -> PopulationReport:
        """Register the corpus base tables and (optionally) populate views.

        Returns a :class:`PopulationReport` mapping each table to the lid of
        its table-level lineage entry.
        """
        report = PopulationReport()
        base_tables = corpus.to_tables()
        base_lids: Dict[str, int] = {}
        for name, table in base_tables.items():
            source_uri = f"file://data/mmqa/{name}.json"
            source_lid = self.lineage.record_source(source_uri)
            table_lid = self.lineage.record_table("load_data", 1, [source_lid])
            self.catalog.register(table, kind="base", lineage_id=table_lid,
                                  source_uri=source_uri, replace=True)
            base_lids[name] = table_lid
            report.base_tables[name] = table_lid
            report.row_counts[name] = len(table)

        if populate_views:
            scene = self.populate_scene_views(base_tables["poster_images"],
                                              parent_lid=base_lids["poster_images"])
            text = self.populate_text_views(base_tables["film_plot"],
                                            parent_lid=base_lids["film_plot"])
            for name, table in {**scene.as_dict(), **text.as_dict()}.items():
                view_lid = self.lineage.record_table(
                    "populate_scene_graph" if name.startswith("image_") else "populate_text_graph",
                    1, [base_lids["poster_images" if name.startswith("image_") else "film_plot"]])
                self.catalog.register(table, kind="view", lineage_id=view_lid, replace=True)
                report.view_tables[name] = view_lid
                report.row_counts[name] = len(table)
        return report

    def populate_scene_views(self, poster_table: Table,
                             parent_lid: Optional[int] = None) -> SceneGraphTables:
        """Materialize the image scene-graph views from a poster table."""
        return populate_scene_graph(poster_table.rows, self.models,
                                    lineage=self.lineage, parent_lid=parent_lid,
                                    batch_size=self.batch_size)

    def populate_text_views(self, plot_table: Table,
                            parent_lid: Optional[int] = None) -> TextGraphTables:
        """Materialize the text semantic-graph views from a plot table."""
        return populate_text_graph(plot_table.rows, self.models,
                                   lineage=self.lineage, parent_lid=parent_lid,
                                   batch_size=self.batch_size)
