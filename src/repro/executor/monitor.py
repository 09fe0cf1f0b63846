"""The agentic execution monitor.

During execution a function that cleared the optimizer's checks may still
misbehave on the full data.  The monitor samples every operator's output and
looks for *semantic anomalies* -- results that run without error but plausibly
do not match user intent.  Detected anomalies are escalated to the user over
the interaction channel with three options (accept / adjust / rewrite),
mirroring the paper's example of a vector join that links one poster to
several movies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.fao.function import GeneratedFunction
from repro.models.base import ModelSuite
from repro.parser.logical_plan import LogicalPlanNode
from repro.relational.table import Table

ANOMALY_OPTIONS = ["accept", "adjust", "rewrite"]
# Node families whose output the fan-out check inspects, and those for which
# an empty output is a legitimate answer rather than an anomaly.
_JOIN_FAMILIES = ("join_text", "join_images", "join_results")
_FILTER_FAMILIES = ("flag_filter", "score_filter", "relational_filter")


@dataclass
class Anomaly:
    """One detected semantic anomaly."""

    operator_name: str
    message: str
    likely_cause: str = ""
    decision: str = ""

    def describe(self) -> str:
        cause = f" (likely cause: {self.likely_cause})" if self.likely_cause else ""
        decision = f" -> user chose {self.decision!r}" if self.decision else ""
        return f"{self.operator_name}: {self.message}{cause}{decision}"


class ExecutionMonitor:
    """Samples operator outputs and flags suspected semantic anomalies."""

    def __init__(self, models: ModelSuite, sample_size: int = 5, enabled: bool = True):
        self.models = models
        self.sample_size = sample_size
        self.enabled = enabled

    def inspect(self, node: LogicalPlanNode, function: GeneratedFunction,
                inputs: Dict[str, Table], output: Table) -> List[Anomaly]:
        """Inspect one operator's output; returns detected anomalies (possibly none)."""
        if not self.enabled:
            return []
        anomalies: List[Anomaly] = []
        primary = inputs.get(node.inputs[0]) if node.inputs else None
        input_sample = primary.head(self.sample_size) if primary is not None else []
        output_sample = output.head(self.sample_size)

        # 1. LLM-style plausibility judgement on the sampled rows.
        ok, hint = self.models.llm.judge_output(node.description, input_sample, output_sample,
                                                purpose="monitor_semantic_check")
        if not ok:
            anomalies.append(Anomaly(
                operator_name=node.name,
                message=f"The output of {node.name!r} looks inconsistent with its intent: {hint}",
                likely_cause=hint,
            ))

        # 2. Join fan-out check: one entity matched to several rows (the paper's
        #    poster-linked-to-multiple-movies example).
        if node.family in _JOIN_FAMILIES:
            for key_column in ("image_uri", "movie_id"):
                if output.schema.has_column(key_column):
                    counts: Dict[object, int] = {}
                    for value in output.column_values(key_column):
                        if value is None:
                            continue
                        counts[value] = counts.get(value, 0) + 1
                    duplicated = [value for value, count in counts.items() if count > 1]
                    if duplicated and key_column == "image_uri":
                        anomalies.append(Anomaly(
                            operator_name=node.name,
                            message=(f"{len(duplicated)} poster image(s) are linked to multiple "
                                     f"movies by {node.name!r}; this is unlikely to match the "
                                     f"user's intent."),
                            likely_cause=("the generated join may have assumed a one-to-one "
                                          "correspondence between posters and movie_table rows "
                                          "that does not hold"),
                        ))
                    break

        # 3. Empty result from a non-empty input is suspicious for non-filter nodes.
        if primary is not None and len(primary) > 0 and len(output) == 0 \
                and node.family not in _FILTER_FAMILIES:
            anomalies.append(Anomaly(
                operator_name=node.name,
                message=f"{node.name!r} produced an empty table from {len(primary)} input rows.",
                likely_cause="the implementation may be dropping every row",
            ))
        return anomalies
