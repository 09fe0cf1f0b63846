"""Generated functions: the physical half of an FAO.

A :class:`GeneratedFunction` binds a signature to one concrete implementation:
a Python callable over input tables, a rendered source text (what gets
persisted to disk and shown in explanations), an implementation kind/variant,
a version id, and the dependency pattern used for lineage recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.datamodel.lineage import DependencyPattern
from repro.errors import FunctionExecutionError, QueryCancelledError
from repro.fao.signature import FunctionSignature
from repro.models.base import ModelSuite
from repro.relational.catalog import Catalog
from repro.relational.table import Table


@dataclass
class FunctionContext:
    """Everything a function body may touch while executing.

    The callable receives its input tables explicitly; the context provides
    the model suite (for implementations that call the VLM / embeddings), the
    catalog (for SQL-style implementations), and the node parameters the coder
    baked in (keyword lists, weights, thresholds, join keys).

    ``batch_size`` is the executor's chunk hint: a model-calling body issues
    one batched call per chunk of at most this many rows.  ``0`` (the
    default, also what profiling and skill revalidation use) means chunks of
    one call, each priced exactly as a serial call.  Results are identical
    at every chunk size; only the token bill changes.
    """

    models: ModelSuite
    catalog: Catalog
    parameters: Dict[str, Any] = field(default_factory=dict)
    batch_size: int = 0


#: A function body: ``(inputs by table name, context) -> output table``.
FunctionBody = Callable[[Dict[str, Table], FunctionContext], Table]


@dataclass
class GeneratedFunction:
    """One versioned implementation of a function signature."""

    signature: FunctionSignature
    body: FunctionBody
    source_text: str
    version: int = 1
    implementation_kind: str = "python"
    variant: str = "default"
    dependency_pattern: DependencyPattern = DependencyPattern.ONE_TO_ONE
    parameters: Dict[str, Any] = field(default_factory=dict)
    accuracy_prior: float = 0.9
    cost_per_row_tokens: float = 0.0
    profile_runtime_s: Optional[float] = None
    # Vectorization: whether the body honours ``FunctionContext.batch_size``
    # by issuing batched model calls, and the per-call setup tokens the batch
    # then pays once per chunk instead of once per row (the optimizer's
    # batch-aware cost formula uses both).
    batchable: bool = False
    batch_setup_tokens: float = 0.0

    @property
    def name(self) -> str:
        return self.signature.name

    @property
    def func_id(self) -> str:
        """The identifier recorded in lineage entries."""
        return self.signature.name

    def execute(self, inputs: Dict[str, Table], context: FunctionContext) -> Table:
        """Run the implementation.

        Any exception raised by the body is wrapped in
        :class:`FunctionExecutionError` (a *syntactic* fault in the paper's
        terminology) so the execution monitor can catch and repair it without
        special-casing arbitrary exception types.
        """
        merged_context = FunctionContext(
            models=context.models,
            catalog=context.catalog,
            parameters={**self.parameters, **context.parameters},
            batch_size=context.batch_size,
        )
        try:
            result = self.body(inputs, merged_context)
        except (FunctionExecutionError, QueryCancelledError):
            # Cancellation unwinds the query; it must not look like a
            # syntactic fault or the monitor would "repair" cancelled work.
            raise
        except Exception as error:  # noqa: BLE001 - deliberate: any body fault is syntactic
            raise FunctionExecutionError(
                f"function {self.name!r} (v{self.version}) failed: {error}",
                function_name=self.name, cause=error) from error
        if not isinstance(result, Table):
            raise FunctionExecutionError(
                f"function {self.name!r} (v{self.version}) returned "
                f"{type(result).__name__} instead of a Table", function_name=self.name)
        result.name = self.signature.output or result.name
        return result

    def describe(self) -> str:
        return (f"{self.signature.describe()}  "
                f"[v{self.version}, {self.implementation_kind}/{self.variant}, "
                f"{self.dependency_pattern.value}]")

    def metadata(self) -> Dict[str, Any]:
        """Serializable metadata (persisted next to the source text)."""
        return {
            "name": self.name,
            "version": self.version,
            "signature": self.signature.to_dict(),
            "implementation_kind": self.implementation_kind,
            "variant": self.variant,
            "dependency_pattern": self.dependency_pattern.value,
            "parameters": {k: v for k, v in self.parameters.items() if _is_plain(v)},
            "accuracy_prior": self.accuracy_prior,
            "cost_per_row_tokens": self.cost_per_row_tokens,
            "batchable": self.batchable,
            "batch_setup_tokens": self.batch_setup_tokens,
        }


def _is_plain(value: Any) -> bool:
    """Whether a parameter value is JSON-serializable as-is."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in value.items())
    return False
