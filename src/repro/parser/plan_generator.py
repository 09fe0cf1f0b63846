"""The logical plan generator (plan-writer agent).

Expands a query sketch + interpreted intent into a logical plan whose nodes
follow the paper's Figure 3 JSON layout.  The writer works purpose-by-purpose
over the sketch: column selection, one join per modality, one scoring node per
semantic score, recency + combination when requested, classification/filter
nodes for image predicates, relational filters, and a final ranking or
projection node.  Each node is stamped with the template family that
implements it; flag and score filters share the purpose ``filter:``, so the
family is an explicit argument rather than something parsed from a purpose
or a name.

Relational filters are deliberately placed *late* in the drafted plan (just
before the final node); the optimizer's predicate-pushdown rewrite is what
moves them next to the data source, so the logical-rewrite ablation measures a
real difference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.models.base import ModelSuite
from repro.models.llm import QueryIntent
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode
from repro.parser.sketch import QuerySketch
from repro.relational.catalog import Catalog


class LogicalPlanGenerator:
    """Drafts a logical plan from a sketch, an intent, and the catalog."""

    def __init__(self, models: ModelSuite, catalog: Catalog):
        self.models = models
        self.catalog = catalog

    def generate(self, sketch: QuerySketch, intent: QueryIntent) -> LogicalPlan:
        """Produce a draft logical plan (to be checked by the plan verifier)."""
        plan = LogicalPlan(nl_query=sketch.nl_query, sketch_version=sketch.version)
        llm = self.models.llm

        def step_index(purpose: str) -> Optional[int]:
            step = sketch.step_by_purpose(purpose)
            return step.index if step else None

        def add(name: str, description: str, inputs: List[str], output: str,
                purpose: str, family: str,
                parameters: Optional[Dict] = None) -> LogicalPlanNode:
            node = LogicalPlanNode(
                name=name,
                description=description,
                inputs=inputs,
                output=output,
                dependency_pattern=llm.classify_dependency_pattern(description),
                sketch_step=step_index(purpose),
                parameters=parameters or {},
                family=family,
            )
            plan.add(node)
            return node

        # 1. Column selection over the base movie table.
        current = "films_base"
        add("select_movie_columns",
            "Select the relevant columns (movie_id, title, release year) from movie_table.",
            ["movie_table"], current, "select_columns", "select_columns",
            parameters={"columns": ["movie_id", "title", "year"]})

        # 2. Modality joins.
        text_current: Optional[str] = None
        image_current: Optional[str] = None
        if intent.needs_text:
            text_current = "films_with_text_entities"
            add("join_text_entities",
                "Join the relational view over text with the movie table: associate each film "
                "with the entities extracted from its plot document.",
                [current, "film_plot", "text_entities"], text_current, "join_text", "join_text")
        if intent.needs_images:
            image_current = "films_with_image_scene"
            add("join_image_scene",
                "Join the relational view over images with the movie table: associate each film "
                "with its poster's scene-graph objects and pixel statistics.",
                [current, "poster_images", "image_objects", "image_frames"],
                image_current, "join_images", "join_images")

        # 3. Semantic scores over the text side.
        score_source = text_current or current
        score_columns: List[str] = []
        for score in intent.semantic_scores:
            output = f"films_with_{score.concept}"
            add(f"gen_{score.name}",
                f"Assign a {score.name.replace('_', ' ')} to each film by measuring vector "
                f"similarity between the generated keyword list and the entities extracted "
                f"from the plot.",
                [score_source], output, f"score:{score.name}", "semantic_score",
                parameters={"score_column": score.name, "concept": score.concept,
                            "keywords": list(score.keywords),
                            "source_column": score.source_column})
            score_columns.append(score.name)
            score_source = output

        # 4. Recency + combination.
        if intent.include_recency:
            output = "films_with_recency"
            add("gen_recency_score",
                "Assign a recency score to each film based on its release year, giving higher "
                "scores to more recent films.",
                [score_source], output, "score:recency_score", "recency_score",
                parameters={"score_column": "recency_score", "year_column": "year"})
            score_source = output
            score_columns.append("recency_score")
            add("combine_scores",
                "Combine the individual scores into a final score per film as a weighted sum "
                f"using the weights {intent.score_weights}.",
                [score_source], "films_with_final_score", "combine_scores", "combine_scores",
                parameters={"weights": dict(intent.score_weights),
                            "output_column": "final_score",
                            "input_columns": list(score_columns)})
            score_source = "films_with_final_score"

        # 5. Image predicates: classification + filter.
        image_final: Optional[str] = None
        for predicate in intent.image_predicates:
            flag_column = f"{predicate.name}_poster"
            classified = f"films_with_{predicate.name}_flag"
            add(f"classify_{predicate.name}",
                f"Analyze visual features of each film's poster (extracted objects, number of "
                f"objects, color statistics) to determine whether the poster is "
                f"'{predicate.name}'.",
                [image_current or current], classified, f"classify:{predicate.name}",
                "classify_image",
                parameters={"flag_column": flag_column, "concept": predicate.concept})
            image_final = classified
            if predicate.mode == "filter":
                filtered = f"films_{predicate.name}_only"
                keep = "keep" if predicate.keep_if_true else "remove"
                add(f"filter_{predicate.name}",
                    f"Filter the films to {keep} those whose poster is classified as "
                    f"'{predicate.name}'.",
                    [classified], filtered, f"filter:{predicate.name}", "flag_filter",
                    parameters={"flag_column": flag_column,
                                "keep_if_true": predicate.keep_if_true})
                image_final = filtered

        # 6. Semantic threshold filters for non-ranking queries.
        if not intent.ranking:
            for score in intent.semantic_scores:
                filtered = f"films_{score.concept}_filtered"
                add(f"filter_{score.name}",
                    f"Keep only films whose {score.name.replace('_', ' ')} indicates the plot "
                    f"matches the requested concept (score above threshold).",
                    [score_source], filtered, f"filter:{score.name}", "score_filter",
                    parameters={"score_column": score.name, "threshold": 0.4})
                score_source = filtered

        # 7. Relational filters (placed late on purpose; see module docstring).
        for index, relational_filter in enumerate(intent.relational_filters):
            filtered = f"films_relfilter_{index}"
            add(f"filter_{relational_filter.column}_{index}",
                f"Keep only films where {relational_filter.column} {relational_filter.op} "
                f"{relational_filter.value}.",
                [score_source], filtered, f"relational_filter:{relational_filter.column}",
                "relational_filter",
                parameters={"column": relational_filter.column, "op": relational_filter.op,
                            "value": relational_filter.value})
            score_source = filtered

        # 8. Join the text-side and image-side intermediate results if both exist.
        final_source = score_source
        if image_final is not None and image_final != final_source:
            if intent.semantic_scores or intent.include_recency or intent.relational_filters:
                add("join_results",
                    "Join all intermediate results so every film carries its scores and its "
                    "poster classification.",
                    [score_source, image_final], "films_joined", "join_results", "join_results",
                    parameters={"join_key": "movie_id"})
                final_source = "films_joined"
            else:
                final_source = image_final

        # 9. Final ranking or projection (see below for the revision loop).
        if intent.ranking:
            sort_column = ("final_score" if intent.include_recency
                           else (score_columns[0] if score_columns else "title"))
            add("rank_films",
                f"Rank the films by {sort_column.replace('_', ' ')}, highest first, and return "
                "the ranked list with their scores and flags.",
                [final_source], "final_ranked_films", "rank", "rank",
                parameters={"sort_column": sort_column, "descending": True})
        else:
            add("project_result",
                "Return the films that satisfy all conditions, with their supporting columns.",
                [final_source], "final_films", "project_result", "project_result",
                parameters={})

        return plan

    # -- revision loop ----------------------------------------------------------------
    def revise(self, plan: LogicalPlan, hints: List[str]) -> LogicalPlan:
        """Apply the verifier's hints to a rejected draft plan.

        The only hint family the writer currently knows how to act on is the
        joinability hint ("add an explicit join key for 'A' and 'B'"): the
        writer inspects both relations' schemas and records an explicit
        ``join_keys`` mapping on the node that reads them, choosing each side's
        identifier-like column (``movie_id``, ``vid``, ``did``, ...).  Other
        hints are attached to the plan nodes as notes for the coder.
        """
        import re

        hint_pattern = re.compile(r"add an explicit join key for '([^']+)' and '([^']+)'")
        for hint in hints:
            match = hint_pattern.search(hint)
            if not match:
                continue
            left, right = match.group(1), match.group(2)
            for node in plan.nodes:
                if left in node.inputs and right in node.inputs:
                    join_keys = dict(node.parameters.get("join_keys") or {})
                    join_keys.setdefault(left, self._identifier_column(left))
                    join_keys.setdefault(right, self._identifier_column(right))
                    node.parameters["join_keys"] = join_keys
        return plan

    def _identifier_column(self, table_name: str) -> str:
        """The identifier-like column of a catalog table (``*_id``, ``vid``, ``did``)."""
        columns = self.catalog.schema(table_name).column_names()
        for column in columns:
            lowered = column.lower()
            if lowered.endswith("_id") or lowered in ("vid", "did", "oid", "eid", "lid"):
                return column
        return columns[0] if columns else "id"
