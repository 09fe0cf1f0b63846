"""The implementation library: the coder agent's toolbox.

The coder does not emit free-form Python (there is no code-writing LLM in this
reproduction); instead it instantiates *implementation templates* from this
library, parameterized by the logical-plan node (keyword lists, weights,
thresholds, join keys).  Each template family offers one or more variants with
different cost/accuracy profiles -- the physical alternatives the optimizer
chooses among, e.g. an embedding-similarity scorer vs. a cheap keyword-overlap
scorer, or a scene-statistics poster classifier vs. a per-poster VLM query.
A node's family is the one its creator declared (``LogicalPlanNode.family``);
:meth:`ImplementationLibrary.candidates` looks it up and rejects a node whose
family has no registered template.  The fused variant composes the member
steps' own templates rather than carrying its own copies.

Every variant produces a :class:`~repro.fao.function.GeneratedFunction` body
plus a human-readable source text that is persisted by the registry and shown
verbatim in fine-grained explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import FunctionGenerationError
from repro.fao.function import FunctionBody, FunctionContext
from repro.parser.logical_plan import LogicalPlanNode
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.relational import operators as ops


# ---------------------------------------------------------------------------
# Helpers shared by the template builders
# ---------------------------------------------------------------------------
def _primary_input(node: LogicalPlanNode, inputs: Dict[str, Table]) -> Table:
    """The node's first input table."""
    name = node.inputs[0]
    if name not in inputs:
        raise FunctionGenerationError(
            f"function {node.name!r} expected input {name!r}, got {sorted(inputs)}")
    return inputs[name]


def _extend_table_columns(source: Table, output_name: str,
                          new_columns: List[Tuple[str, DataType]],
                          vectors: Dict[str, List[Any]]) -> Table:
    """COW-fork ``source`` and set whole computed column vectors on the fork.

    The fork shares every untouched source column with the input (zero-copy);
    only the computed columns are materialized.  This is the whole-column
    write path every scoring body funnels through.
    """
    schema = Schema(list(source.schema.columns))
    for column_name, data_type in new_columns:
        if not schema.has_column(column_name):
            schema = schema.add(Column(column_name, data_type))
    store = source._store.fork()
    result = Table._adopt(output_name, schema, store,
                          description=source.description,
                          lossy_columns=source.lossy_columns)
    length = len(source)
    for column_name, _ in new_columns:
        col = schema.column(column_name)
        values = vectors.get(column_name)
        if values is None:
            values = [None] * length
        store.set_column(col.name, [col.validate(v) for v in values])
    return result


def _filter_table_column(source: Table, output_name: str, column: str,
                         keep_value: Callable[[Any], bool]) -> Table:
    """Whole-column filter: apply ``keep_value`` over one column's vector."""
    vector = _safe_vector(source, column)
    positions = [i for i, value in enumerate(vector) if keep_value(value)]
    return Table._adopt(output_name, Schema(list(source.schema.columns)),
                        source._store.gather(positions),
                        description=source.description,
                        lossy_columns=source.lossy_columns)


def _safe_vector(table: Table, name: str) -> List[Any]:
    """One column's raw vector; all-NULL when the column does not exist.

    Mirrors ``row.get(name)`` — scoring templates routinely probe columns
    that only some pipelines produce.  Treat the result as read-only.
    """
    store = table._store
    resolved = store.resolve(name)
    if resolved is None:
        return [None] * len(table)
    return store.column(resolved)


def _rows_by_key(table: Table, key: str) -> Dict[Any, List[Dict[str, Any]]]:
    """Group a table's rows by one column."""
    grouped: Dict[Any, List[Dict[str, Any]]] = {}
    for row in table:
        grouped.setdefault(row.get(key), []).append(row)
    return grouped


def _batch_size(context: FunctionContext) -> int:
    """Calls per batched model invocation: the executor's chunk hint.

    A context without one (profiling, skill revalidation, ad-hoc execution)
    gets chunks of one call, which the batch formula prices exactly as a
    serial call.
    """
    return max(1, int(getattr(context, "batch_size", 0) or 0))


def _scene_scores(source: Table, lexicon: Any) -> List[float]:
    """The scene-statistics "boring" score of every row, in [0, 1].

    Many objects, vivid object classes and saturated colour each lower the
    score.  The scene variant publishes it; the cascade's cheap stage trusts
    it as far as it sits from the 0.5 decision boundary.
    """
    scores: List[float] = []
    for classes, n_objects, saturation in zip(_safe_vector(source, "object_classes"),
                                              _safe_vector(source, "n_objects"),
                                              _safe_vector(source, "saturation")):
        vivid_hits = lexicon.matching_terms(" ".join(str(c) for c in (classes or [])),
                                            "vivid_visual")
        score = 1.0
        score -= min(0.4, 0.1 * int(n_objects or 0))
        score -= min(0.3, 0.15 * len(vivid_hits))
        score -= min(0.3, float(saturation or 0.0))
        scores.append(max(0.0, min(1.0, score)))
    return scores


def _visual_question(concept: str) -> str:
    """The yes/no question the VLM-backed classifiers ask about a poster."""
    return "Is this poster boring and plain?" if "boring" in concept else \
        "Is this poster vivid and action-packed?"


def _vlm_outcome(answer: Dict[str, Any], concept: str) -> Tuple[float, bool]:
    """(score, flag) of one visual-question answer, oriented to ``concept``."""
    score = answer["boring_score"] if "boring" in concept else 1.0 - answer["boring_score"]
    return round(float(score), 6), bool(answer["answer"])


def rank_sort_key(node: LogicalPlanNode, schema: Schema) -> Tuple[str, bool]:
    """The ``(column, descending)`` key a ``rank`` node sorts a table by.

    The column is the node's ``sort_column`` when the table has it, else the
    table's last ``*_score`` column.  The rank body and the sharded merge
    both call this, so a merged ranking is re-sorted on exactly the key each
    shard used.
    """
    descending = bool(node.parameters.get("descending", True))
    sort_column = node.parameters.get("sort_column", "final_score")
    if schema.has_column(sort_column):
        return sort_column, descending
    score_like = [c.name for c in schema if c.name.endswith("_score")]
    if not score_like:
        raise FunctionGenerationError(
            f"{node.name!r} cannot find a score column to sort by in {schema.column_names()}")
    return score_like[-1], descending


# ---------------------------------------------------------------------------
# Implementation specs
# ---------------------------------------------------------------------------
@dataclass
class ImplementationSpec:
    """One candidate implementation of a template family.

    ``batchable`` marks variants whose body calls models.  Such a body
    gathers its model inputs as one column and hands it to
    :meth:`~repro.models.base.ModelSuite.call_many` in chunks of
    ``FunctionContext.batch_size`` calls (chunks of one without a hint).
    ``batch_setup_tokens`` is the per-call setup share of
    ``cost_per_row_tokens`` that a batch then pays once per chunk — the
    optimizer's batch-aware pricing uses it.
    """

    family: str
    variant: str
    implementation_kind: str
    accuracy_prior: float
    cost_per_row_tokens: float
    build: Callable[[LogicalPlanNode], Tuple[FunctionBody, str]]
    description: str = ""
    batchable: bool = False
    batch_setup_tokens: float = 0.0


class ImplementationLibrary:
    """Maps node families to candidate implementations."""

    def __init__(self):
        self._builders: Dict[str, List[ImplementationSpec]] = {}
        self._register_all()

    # -- public API ----------------------------------------------------------------
    def families(self) -> List[str]:
        """All known template families."""
        return sorted(self._builders)

    def candidates(self, family: str, node_name: str = "") -> List[ImplementationSpec]:
        """Candidate implementations of one family, most accurate first.

        ``node_name`` names the plan node asking, for the error raised when
        its family has no registered templates.
        """
        specs = self._builders.get(family)
        if not specs:
            asker = f"node {node_name!r}: " if node_name else ""
            raise FunctionGenerationError(
                f"{asker}no implementations registered for family {family!r}")
        return sorted(specs, key=lambda s: -s.accuracy_prior)

    # -- registration of all template families ------------------------------------------
    def _register(self, spec: ImplementationSpec) -> None:
        self._builders.setdefault(spec.family, []).append(spec)

    def _register_all(self) -> None:
        self._register(ImplementationSpec(
            "select_columns", "projection", "sql", 0.99, 0.0, self._build_select_columns,
            "Project the requested columns from the base relation."))
        self._register(ImplementationSpec(
            "join_text", "entity_collection_join", "python", 0.95, 0.0, self._build_join_text,
            "Join movies to their plot documents and collect extracted entities per movie."))
        self._register(ImplementationSpec(
            "join_images", "scene_collection_join", "python", 0.95, 0.0, self._build_join_images,
            "Join movies to their posters' scene-graph objects and pixel statistics."))
        self._register(ImplementationSpec(
            "semantic_score", "embedding_similarity", "embedding", 0.92, 6.0,
            self._build_semantic_score_embedding,
            "Embed the keyword list and extracted entities; score by match density.",
            batchable=True, batch_setup_tokens=5.0))
        self._register(ImplementationSpec(
            "semantic_score", "keyword_overlap", "python", 0.85, 0.0,
            self._build_semantic_score_keyword,
            "Score by exact keyword overlap between the keyword list and extracted entities."))
        self._register(ImplementationSpec(
            "recency_score", "minmax_normalization", "python", 0.98, 0.0, self._build_recency_score,
            "Normalize release year to [0, 1] over the input table."))
        self._register(ImplementationSpec(
            "combine_scores", "weighted_sum", "python", 0.99, 0.0, self._build_combine_scores,
            "Weighted sum of the individual score columns."))
        self._register(ImplementationSpec(
            "classify_image", "scene_statistics", "python", 0.9, 0.0,
            self._build_classify_image_scene,
            "Classify posters from their scene-graph objects and pixel statistics."))
        self._register(ImplementationSpec(
            "classify_image", "vlm_query", "vlm", 0.96, 440.0,
            self._build_classify_image_vlm,
            "Ask the VLM a visual question about every poster.",
            batchable=True, batch_setup_tokens=384.0))
        self._register(ImplementationSpec(
            "classify_image", "cascade", "cascade", 0.94, 60.0,
            self._build_classify_image_cascade,
            "Cheap scene-statistics classifier first; escalate uncertain posters to the VLM.",
            batchable=True, batch_setup_tokens=50.0))
        self._register(ImplementationSpec(
            "flag_filter", "boolean_filter", "python", 0.99, 0.0, self._build_flag_filter,
            "Keep rows whose classification flag matches."))
        self._register(ImplementationSpec(
            "score_filter", "threshold_filter", "python", 0.95, 0.0, self._build_score_filter,
            "Keep rows whose score clears a threshold."))
        self._register(ImplementationSpec(
            "relational_filter", "comparison_filter", "sql", 0.99, 0.0,
            self._build_relational_filter,
            "Keep rows satisfying a relational comparison."))
        self._register(ImplementationSpec(
            "join_results", "hash_join", "sql", 0.98, 0.0, self._build_join_results,
            "Equi-join two intermediate tables on the movie id."))
        self._register(ImplementationSpec(
            "rank", "sort_descending", "sql", 0.99, 0.0, self._build_rank,
            "Sort by the requested score column."))
        self._register(ImplementationSpec(
            "project_result", "identity", "python", 0.99, 0.0, self._build_project_result,
            "Return the remaining rows unchanged."))
        self._register(ImplementationSpec(
            "fused_scores", "monolithic", "embedding", 0.8, 6.0, self._build_fused_scores,
            "One large function computing every score and their combination in a single pass. "
            "Cheaper to materialize but harder to generate and explain (paper Section 4).",
            batchable=True, batch_setup_tokens=5.0))

    # ------------------------------------------------------------------------------
    # Template builders.  Each returns (body, source_text).
    # ------------------------------------------------------------------------------
    def _build_select_columns(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        columns = list(node.parameters.get("columns") or ["movie_id", "title", "year"])
        source_table = node.inputs[0]

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            available = [c for c in columns if source.schema.has_column(c)]
            return ops.project(source, available, name=node.output)

        source_text = (
            f"def {node.name}({source_table}):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return {source_table}.select(columns={columns})\n"
        )
        return body, source_text

    def _build_join_text(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            films = _primary_input(node, inputs)
            plots = inputs.get("film_plot") or context.catalog.table("film_plot")
            entities = inputs.get("text_entities") or context.catalog.table("text_entities")
            did_by_movie = {row["movie_id"]: row["did"] for row in plots}
            entities_by_did = _rows_by_key(entities, "did")
            # The join constructs fresh rows (it does not carry per-row lineage
            # ids forward), so its output is a table-level artifact -- exactly
            # the paper's treatment of join_text_scene_graph in Figure 2.
            film_columns = [c for c in films.schema.columns if c.name.lower() != "lid"]
            schema = Schema(list(film_columns)) \
                .add(Column("plot_did", DataType.INTEGER)) \
                .add(Column("entity_terms", DataType.JSON)) \
                .add(Column("person_entities", DataType.JSON))
            result = Table(node.output, schema)
            for row in films:
                did = did_by_movie.get(row.get("movie_id"))
                doc_entities = entities_by_did.get(did, [])
                events = [e.get("canonical") for e in doc_entities if e.get("cid") == "event"]
                persons = [e.get("canonical") for e in doc_entities if e.get("cid") == "person"]
                new_row = {c.name: row.get(c.name) for c in film_columns}
                new_row.update({"plot_did": did, "entity_terms": events,
                                "person_entities": persons})
                result.insert(new_row)
            return result

        source_text = (
            f"def {node.name}(films, film_plot, text_entities):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            "    did_by_movie = {r['movie_id']: r['did'] for r in film_plot}\n"
            "    for row in films:\n"
            "        doc = entities_of(text_entities, did_by_movie[row['movie_id']])\n"
            "        row['entity_terms'] = [e.canonical for e in doc if e.cid == 'event']\n"
            "        row['person_entities'] = [e.canonical for e in doc if e.cid == 'person']\n"
            "    return films\n"
        )
        return body, source_text

    def _build_join_images(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            films = _primary_input(node, inputs)
            posters = inputs.get("poster_images") or context.catalog.table("poster_images")
            objects = inputs.get("image_objects") or context.catalog.table("image_objects")
            frames = inputs.get("image_frames") or context.catalog.table("image_frames")
            uri_by_movie = {row["movie_id"]: row.get("image_uri") for row in posters}
            objects_by_vid = _rows_by_key(objects, "vid")
            frames_by_vid = {row["vid"]: row for row in frames}
            # Fresh rows without per-row lineage ids: this join is a
            # table-level artifact in the provenance graph.
            film_columns = [c for c in films.schema.columns if c.name.lower() != "lid"]
            schema = Schema(list(film_columns)) \
                .add(Column("image_uri", DataType.TEXT)) \
                .add(Column("object_classes", DataType.JSON)) \
                .add(Column("n_objects", DataType.INTEGER)) \
                .add(Column("saturation", DataType.FLOAT)) \
                .add(Column("color_variance", DataType.FLOAT)) \
                .add(Column("coverage", DataType.FLOAT))
            result = Table(node.output, schema)
            for row in films:
                movie_id = row.get("movie_id")
                movie_objects = objects_by_vid.get(movie_id, [])
                frame = frames_by_vid.get(movie_id, {})
                new_row = {c.name: row.get(c.name) for c in film_columns}
                new_row.update({
                    "image_uri": uri_by_movie.get(movie_id),
                    "object_classes": [o.get("cid") for o in movie_objects],
                    "n_objects": len(movie_objects),
                    "saturation": frame.get("saturation", 0.0),
                    "color_variance": frame.get("color_variance", 0.0),
                    "coverage": frame.get("coverage", 0.0),
                })
                result.insert(new_row)
            return result

        source_text = (
            f"def {node.name}(films, poster_images, image_objects, image_frames):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            "    for row in films:\n"
            "        objs = objects_of(image_objects, vid=row['movie_id'])\n"
            "        row['object_classes'] = [o.cid for o in objs]\n"
            "        row['n_objects'] = len(objs)\n"
            "        row['saturation'], row['color_variance'], row['coverage'] = \\\n"
            "            frame_stats(image_frames, vid=row['movie_id'])\n"
            "    return films\n"
        )
        return body, source_text

    def _build_semantic_score_embedding(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        score_column = node.parameters.get("score_column", "semantic_score")
        keywords = list(node.parameters.get("keywords") or [])

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            node_keywords = list(context.parameters.get("keywords") or keywords)
            scores = context.models.call_many(
                "embeddings", "match_fraction",
                [((node_keywords, terms or []), {"purpose": node.name})
                 for terms in _safe_vector(source, "entity_terms")],
                batch_size=_batch_size(context))
            return _extend_table_columns(source, node.output,
                                         [(score_column, DataType.FLOAT)],
                                         {score_column: [round(float(score), 6)
                                                         for score in scores]})

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    keywords = {keywords}\n"
            "    for row in films:\n"
            "        sims = [max(cosine(embed(k), embed(t)) for k in keywords)\n"
            "                for t in row['entity_terms']]\n"
            f"        row['{score_column}'] = matching_density(sims)\n"
            "    return films\n"
        )
        return body, source_text

    def _build_semantic_score_keyword(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        score_column = node.parameters.get("score_column", "semantic_score")
        keywords = list(node.parameters.get("keywords") or [])

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            node_keywords = {k.lower() for k in (context.parameters.get("keywords") or keywords)}

            # Whole-column: one pass over the entity-terms vector, no row
            # proxies on the hot path.
            scores: List[Any] = []
            for raw_terms in _safe_vector(source, "entity_terms"):
                terms = [str(t).lower() for t in (raw_terms or [])]
                if not terms:
                    scores.append(0.0)
                    continue
                hits = sum(1 for term in terms if term in node_keywords)
                scores.append(round(hits / len(terms), 6))
            return _extend_table_columns(source, node.output,
                                         [(score_column, DataType.FLOAT)],
                                         {score_column: scores})

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description} (keyword-overlap variant)\"\"\"\n"
            f"    keywords = {keywords}\n"
            "    for row in films:\n"
            "        terms = row['entity_terms']\n"
            f"        row['{score_column}'] = len([t for t in terms if t in keywords]) / len(terms)\n"
            "    return films\n"
        )
        return body, source_text

    def _build_recency_score(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        year_column = node.parameters.get("year_column", "year")
        score_column = node.parameters.get("score_column", "recency_score")
        reverse = bool(node.parameters.get("_inject_reversed", False))

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            # Whole-column: min/max and the normalization are vector math over
            # the shared year vector; no row proxies are materialized.
            year_vector = _safe_vector(source, year_column)
            years = [y for y in year_vector if y is not None]
            low, high = (min(years), max(years)) if years else (0, 1)
            span = max(1, high - low)
            scores: List[Any] = []
            for year in year_vector:
                if year is None:
                    scores.append(None)
                    continue
                normalized = (year - low) / span
                if reverse:
                    normalized = 1.0 - normalized
                scores.append(round(float(normalized), 6))
            return _extend_table_columns(source, node.output,
                                         [(score_column, DataType.FLOAT)],
                                         {score_column: scores})

        direction = "older films score higher (BUG)" if reverse else "newer films score higher"
        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description} ({direction})\"\"\"\n"
            f"    low, high = min(year), max(year)\n"
            f"    for row in films:\n"
            + (f"        row['{score_column}'] = 1.0 - (row['{year_column}'] - low) / (high - low)\n"
               if reverse else
               f"        row['{score_column}'] = (row['{year_column}'] - low) / (high - low)\n")
            + "    return films\n"
        )
        return body, source_text

    def _build_combine_scores(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        weights = dict(node.parameters.get("weights") or {})
        output_column = node.parameters.get("output_column", "final_score")

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            node_weights = dict(context.parameters.get("weights") or weights)
            if not node_weights:
                candidates = [c.name for c in source.schema if c.name.endswith("_score")]
                node_weights = {name: 1.0 / len(candidates) for name in candidates} if candidates else {}

            # Whole-column weighted sum: one accumulator vector, one pass per
            # score column, reading the shared vectors directly.
            totals = [0.0] * len(source)
            for column, weight in node_weights.items():
                for i, value in enumerate(_safe_vector(source, column)):
                    if value is not None:
                        totals[i] += weight * float(value)
            combined = [round(total, 8) for total in totals]
            return _extend_table_columns(source, node.output,
                                         [(output_column, DataType.FLOAT)],
                                         {output_column: combined})

        terms = " + ".join(f"{w} * row['{c}']" for c, w in weights.items()) or "sum of score columns"
        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            "    for row in films:\n"
            f"        row['{output_column}'] = {terms}\n"
            "    return films\n"
        )
        return body, source_text

    def _build_classify_image_scene(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        flag_column = node.parameters.get("flag_column", "boring_poster")
        score_column = flag_column.replace("_poster", "") + "_score"
        fragile = bool(node.parameters.get("_inject_fragile", False))

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            if fragile:
                for uri in _safe_vector(source, "image_uri"):
                    if str(uri).endswith(".heic"):
                        raise ValueError(f"unsupported image format: {uri}")
            scores = _scene_scores(source, context.models.lexicon)
            return _extend_table_columns(
                source, node.output,
                [(score_column, DataType.FLOAT), (flag_column, DataType.BOOLEAN)],
                {score_column: [round(score, 6) for score in scores],
                 flag_column: [score >= 0.5 for score in scores]})

        source_text = (
            f"def {node.name}(films_with_image_scene):\n"
            f"    \"\"\"{node.description} (scene-statistics variant)\"\"\"\n"
            "    for row in films_with_image_scene:\n"
            "        vivid = [c for c in row['object_classes'] if c in VIVID_CLASSES]\n"
            "        score = 1.0 - 0.1 * row['n_objects'] - 0.15 * len(vivid) - row['saturation']\n"
            f"        row['{score_column}'] = clamp(score, 0, 1)\n"
            f"        row['{flag_column}'] = row['{score_column}'] >= 0.5\n"
            "    return films_with_image_scene\n"
        )
        return body, source_text

    def _build_classify_image_vlm(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        flag_column = node.parameters.get("flag_column", "boring_poster")
        score_column = flag_column.replace("_poster", "") + "_score"
        concept = node.parameters.get("concept", "boring_visual")
        question = _visual_question(concept)

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            posters = context.catalog.table("poster_images")
            image_by_movie = {row["movie_id"]: row.get("image") for row in posters}
            images = [image_by_movie.get(movie_id)
                      for movie_id in _safe_vector(source, "movie_id")]
            # One batched visual-question call per chunk of rows that have a
            # poster; rows without one get a NULL outcome.
            with_image = [i for i, image in enumerate(images) if image is not None]
            answers = context.models.call_many(
                "vlm", "answer_visual_question",
                [((images[i], question), {"purpose": node.name}) for i in with_image],
                batch_size=_batch_size(context))
            scores: List[Any] = [None] * len(images)
            flags: List[Any] = [None] * len(images)
            for i, answer in zip(with_image, answers):
                scores[i], flags[i] = _vlm_outcome(answer, concept)
            return _extend_table_columns(
                source, node.output,
                [(score_column, DataType.FLOAT), (flag_column, DataType.BOOLEAN)],
                {score_column: scores, flag_column: flags})

        source_text = (
            f"def {node.name}(films_with_image_scene):\n"
            f"    \"\"\"{node.description} (VLM-query variant)\"\"\"\n"
            "    for row in films_with_image_scene:\n"
            "        image = load_image(poster_images, row['movie_id'])\n"
            f"        answer = vlm.ask(image, {question!r})\n"
            f"        row['{score_column}'] = answer.score\n"
            f"        row['{flag_column}'] = answer.answer\n"
            "    return films_with_image_scene\n"
        )
        return body, source_text

    def _build_classify_image_cascade(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        """A model cascade: scene statistics first, VLM only for uncertain posters.

        This is the paper's "model cascades" physical choice: most posters are
        decided by the cheap classifier; only those whose cheap score sits near
        the decision boundary pay for a VLM call.
        """
        flag_column = node.parameters.get("flag_column", "boring_poster")
        score_column = flag_column.replace("_poster", "") + "_score"
        concept = node.parameters.get("concept", "boring_visual")
        threshold = float(node.parameters.get("cascade_confidence", 0.6))
        question = _visual_question(concept)

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            posters = context.catalog.table("poster_images") \
                if context.catalog.has_table("poster_images") else None
            image_by_movie = {row["movie_id"]: row.get("image") for row in posters} \
                if posters is not None else {}
            images = [image_by_movie.get(movie_id)
                      for movie_id in _safe_vector(source, "movie_id")]
            # The cheap stage is model-free, so it runs over every row first.
            # A row escalates when its confidence (distance of the score from
            # the 0.5 boundary) is below the threshold; escalated rows with a
            # poster go to the VLM as one batched call per chunk, and those
            # without one keep the cheap answer.  Decisions equal
            # ModelCascade.run row by row.
            cheap = _scene_scores(source, context.models.lexicon)
            scores: List[Any] = [round(score, 6) for score in cheap]
            flags: List[Any] = [score >= 0.5 for score in cheap]
            escalated = [i for i, score in enumerate(cheap)
                         if min(1.0, abs(score - 0.5) * 2) < threshold
                         and images[i] is not None]
            answers = context.models.call_many(
                "vlm", "answer_visual_question",
                [((images[i], question), {"purpose": node.name}) for i in escalated],
                batch_size=_batch_size(context))
            for i, answer in zip(escalated, answers):
                scores[i], flags[i] = _vlm_outcome(answer, concept)
            return _extend_table_columns(
                source, node.output,
                [(score_column, DataType.FLOAT), (flag_column, DataType.BOOLEAN)],
                {score_column: scores, flag_column: flags})

        source_text = (
            f"def {node.name}(films_with_image_scene):\n"
            f"    \"\"\"{node.description} (cascade variant)\"\"\"\n"
            "    for row in films_with_image_scene:\n"
            "        score, confidence = cheap_scene_classifier(row)\n"
            f"        if confidence < {threshold}:\n"
            f"            score = vlm.ask(load_image(row), {question!r})\n"
            f"        row['{score_column}'], row['{flag_column}'] = score, score >= 0.5\n"
            "    return films_with_image_scene\n"
        )
        return body, source_text

    def _build_flag_filter(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        flag_column = node.parameters.get("flag_column", "boring_poster")
        keep_if_true = bool(node.parameters.get("keep_if_true", True))

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            return _filter_table_column(source, node.output, flag_column,
                                        lambda value: bool(value) == keep_if_true)

        comparison = "is True" if keep_if_true else "is False"
        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return [row for row in films if row['{flag_column}'] {comparison}]\n"
        )
        return body, source_text

    def _build_score_filter(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        score_column = node.parameters.get("score_column", "score")
        threshold = float(node.parameters.get("threshold", 0.5))

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            return _filter_table_column(source, node.output, score_column,
                                        lambda value: (value or 0.0) >= threshold)

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return [row for row in films if row['{score_column}'] >= {threshold}]\n"
        )
        return body, source_text

    def _build_relational_filter(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        column = node.parameters.get("column", "year")
        op = node.parameters.get("op", ">")
        value = node.parameters.get("value")

        comparators = {
            ">": lambda a, b: a is not None and a > b,
            ">=": lambda a, b: a is not None and a >= b,
            "<": lambda a, b: a is not None and a < b,
            "<=": lambda a, b: a is not None and a <= b,
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
        }
        if op not in comparators:
            raise FunctionGenerationError(f"unsupported relational operator {op!r}")
        comparator = comparators[op]

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            return _filter_table_column(source, node.output, column,
                                        lambda cell: comparator(cell, value))

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return [row for row in films if row['{column}'] {op} {value!r}]\n"
        )
        return body, source_text

    def _build_join_results(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        join_key = node.parameters.get("join_key", "movie_id")

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            if len(node.inputs) < 2:
                raise FunctionGenerationError(f"{node.name!r} needs two inputs to join")
            left = inputs[node.inputs[0]]
            right = inputs[node.inputs[1]]
            joined = ops.hash_join(left, right, join_key, join_key, how="inner", name=node.output)
            # Drop the duplicated join columns from the right side to keep the
            # result tidy (title_right, year_right, ...).
            keep = [c for c in joined.column_names() if not c.endswith("_right")]
            return ops.project(joined, keep, name=node.output)

        source_text = (
            f"def {node.name}({', '.join(node.inputs)}):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return hash_join({node.inputs[0]}, {node.inputs[1]}, on='{join_key}')\n"
        )
        return body, source_text

    def _build_rank(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        sort_column = node.parameters.get("sort_column", "final_score")
        descending = bool(node.parameters.get("descending", True))

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            return ops.sort(source, [rank_sort_key(node, source.schema)], name=node.output)

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    return sorted(films, key=lambda row: row['{sort_column}'], reverse={descending})\n"
        )
        return body, source_text

    def _build_project_result(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            source = _primary_input(node, inputs)
            return source.copy(node.output)

        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            "    return films\n"
        )
        return body, source_text

    def _build_fused_scores(self, node: LogicalPlanNode) -> Tuple[FunctionBody, str]:
        sub_specs = list(node.parameters.get("sub_specs") or [])
        if not sub_specs:
            raise FunctionGenerationError(f"fused node {node.name!r} has no sub_specs")
        # Each step runs its own family's most accurate template body, in
        # chain order; every step reads the previous step's table under the
        # fused node's input name.
        steps = []
        for spec in sub_specs:
            step = LogicalPlanNode(name=spec["name"], description=spec["description"],
                                   inputs=list(node.inputs[:1]), output=node.output,
                                   parameters=dict(spec["parameters"]),
                                   family=spec["family"])
            steps.append(self.candidates(step.family, step.name)[0].build(step)[0])

        def body(inputs: Dict[str, Table], context: FunctionContext) -> Table:
            table = _primary_input(node, inputs)
            for step_body in steps:
                table = step_body({node.inputs[0]: table}, context)
            return table

        step_names = ", ".join(spec["name"] for spec in sub_specs)
        source_text = (
            f"def {node.name}(films):\n"
            f"    \"\"\"{node.description}\"\"\"\n"
            f"    # fused steps: {step_names}\n"
            "    for row in films:\n"
            "        # all scores and their combination are computed inline in one pass\n"
            "        ...\n"
            "    return films\n"
        )
        return body, source_text
