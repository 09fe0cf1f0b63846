"""Physical plans: ordered lists of (node, generated function) pairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import PlanError
from repro.fao.function import GeneratedFunction
from repro.fao.profiler import ProfileResult
from repro.parser.logical_plan import LogicalPlan, LogicalPlanNode


@dataclass
class PhysicalOperator:
    """One executable step: a logical node bound to a chosen implementation.

    ``batchable``/``batch_size`` carry the optimizer's chunk hint: the
    engine hands ``batch_size`` to a model-calling body, which issues one
    batched call per chunk of that many rows (sub-linear token cost,
    identical rows).  ``batch_size`` 0 means chunks of one call.
    """

    node: LogicalPlanNode
    function: GeneratedFunction
    estimated_tokens: float = 0.0
    estimated_runtime_s: float = 0.0
    estimated_cardinality: int = 0
    profile: Optional[ProfileResult] = None
    alternatives_considered: int = 1
    batchable: bool = False
    batch_size: int = 0

    @property
    def name(self) -> str:
        return self.node.name

    def describe(self) -> str:
        batched = f", batched<={self.batch_size}" if self.batchable else ""
        return (f"{self.node.name} := {self.function.implementation_kind}/"
                f"{self.function.variant} v{self.function.version} "
                f"(~{self.estimated_tokens:.0f} tokens, "
                f"~{self.estimated_cardinality} rows out{batched})")


@dataclass
class PhysicalPlan:
    """The fully compiled plan the execution engine runs."""

    operators: List[PhysicalOperator] = field(default_factory=list)
    logical_plan: Optional[LogicalPlan] = None
    rewrites_applied: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def add(self, operator: PhysicalOperator) -> PhysicalOperator:
        self.operators.append(operator)
        return operator

    def clone(self) -> "PhysicalPlan":
        """A per-execution copy: fresh operator shells over the shared nodes
        and functions.

        The engine reassigns ``operator.function`` when it repairs an
        implementation on the fly, so a cached (prepared) plan must never be
        executed directly — each run gets its own operator objects instead.
        """
        operators = [PhysicalOperator(node=op.node, function=op.function,
                                      estimated_tokens=op.estimated_tokens,
                                      estimated_runtime_s=op.estimated_runtime_s,
                                      estimated_cardinality=op.estimated_cardinality,
                                      profile=op.profile,
                                      alternatives_considered=op.alternatives_considered,
                                      batchable=op.batchable,
                                      batch_size=op.batch_size)
                     for op in self.operators]
        return PhysicalPlan(operators=operators, logical_plan=self.logical_plan,
                            rewrites_applied=list(self.rewrites_applied))

    def pin_versions(self, registry, versions: Dict[str, int]) -> "PhysicalPlan":
        """Swap specific function versions into this plan's operators.

        ``versions`` maps operator names to version ids resolved from the
        ``registry``; unmentioned operators are untouched.  Call this on a
        per-execution :meth:`clone`, never on a cached plan.  Returns self.
        """
        for operator in self.operators:
            if operator.name in versions:
                operator.function = registry.get(operator.name,
                                                 versions[operator.name])
        return self

    def operator(self, name: str) -> PhysicalOperator:
        """Look up an operator by its node name."""
        for operator in self.operators:
            if operator.name == name:
                return operator
        raise PlanError(f"no physical operator named {name!r}")

    def functions(self) -> Dict[str, GeneratedFunction]:
        """node name -> chosen implementation."""
        return {op.name: op.function for op in self.operators}

    def final_output(self) -> str:
        """The output table name of the last operator."""
        if not self.operators:
            raise PlanError("empty physical plan")
        return self.operators[-1].node.output

    @property
    def total_estimated_tokens(self) -> float:
        return sum(op.estimated_tokens for op in self.operators)

    @property
    def estimated_accuracy(self) -> float:
        """A crude plan-level accuracy estimate: product of accuracy priors."""
        accuracy = 1.0
        for operator in self.operators:
            accuracy *= operator.function.accuracy_prior
        return accuracy

    def describe(self) -> str:
        lines = ["physical plan"]
        if self.rewrites_applied:
            lines.append(f"  rewrites: {', '.join(self.rewrites_applied)}")
        lines.extend("  " + operator.describe() for operator in self.operators)
        lines.append(f"  total estimated tokens: {self.total_estimated_tokens:.0f}")
        return "\n".join(lines)
