"""The gateway-routing proxy: one generic wrapper for every model kind.

A proxy exposes the same surface as the model it wraps.  Each method the
model declares in its ``CALLS`` table (:mod:`repro.models.calls`) is built
by its :class:`~repro.models.calls.CallSpec` and routed through the
session's :class:`~repro.gateway.gateway.SessionGatewayClient`; every other
attribute (``lexicon``, ``cost_meter``, uncharged helpers) delegates
straight through.  Adding a charged model method touches only that model's
file.  A vector of calls is one
:meth:`~repro.models.base.ModelSuite.call_many` on the routed suite.
"""

from __future__ import annotations

from typing import Any


class GatewayModelProxy:
    """Routes one model's declared calls through a session's gateway client."""

    def __init__(self, model: Any, client: Any):
        self._model = model
        self._client = client

    @property
    def wrapped(self) -> Any:
        """The underlying bare model."""
        return self._model

    def __getattr__(self, name: str) -> Any:
        model = self._model
        spec = getattr(type(model), "CALLS", {}).get(name)
        if spec is None:
            return getattr(model, name)
        client = self._client

        def routed(*args: Any, **kwargs: Any) -> Any:
            call_args, call_kwargs = spec.build(model, args, kwargs)
            return client.invoke(model, name, call_args, call_kwargs,
                                 semantic_terms_of=spec.semantic_terms)

        return routed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._model!r})"
