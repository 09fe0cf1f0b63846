"""Declared model calls: one :class:`CallSpec` per charged model method.

Each simulated model lists its charged methods in a ``CALLS`` table next to
its code.  :meth:`CallSpec.build` turns a caller's ``(*args, **kwargs)``
into the one ``(args, kwargs)`` shape every route uses: parameters without
a default are positional, every defaulted parameter is a keyword (filled in
when omitted), and the spec's normalizers make equal requests fingerprint
alike.  The gateway proxy (:mod:`repro.gateway.proxy`) and
:meth:`repro.models.base.ModelSuite.call_many` both build calls here, so a
serial call and a vector member with equal arguments share one request key.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

#: One logical call: ``(positional args, keyword args)``.
Call = Tuple[Tuple[Any, ...], Dict[str, Any]]


def terms(value: Optional[Sequence[Any]]) -> Tuple[Any, ...]:
    """A sequence argument as a tuple (a generator is consumed once)."""
    return tuple(value) if value is not None else ()


def optional_terms(value: Optional[Sequence[Any]]) -> Optional[Tuple[Any, ...]]:
    """Like :func:`terms`, but an empty sequence means "none given"."""
    return terms(value) or None


def mapping(value: Optional[Mapping[Any, Any]]) -> Dict[Any, Any]:
    """An optional mapping argument as a dict (``None`` means empty)."""
    return dict(value or {})


def query_and_candidates(args: Tuple[Any, ...], _kwargs: Dict[str, Any]):
    """The semantic-tier terms of a (query_terms, candidate_terms) predicate."""
    return args[0], args[1]


@functools.lru_cache(maxsize=None)
def _layout(cls: type, method: str, purpose: str):
    """(signature, positional names, defaults) of one method, computed once."""
    signature = inspect.signature(getattr(cls, method))
    params = list(signature.parameters.values())[1:]          # drop self
    positional = tuple(p.name for p in params
                       if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    return signature, positional, {**defaults, "purpose": purpose}


@dataclass(frozen=True)
class CallSpec:
    """One charged model method, declared once next to its model.

    ``purpose`` is the cost-record label when the caller names none;
    ``normalize`` maps parameter names to converters;
    ``semantic_terms(args, kwargs)`` gives the (query, candidate) term pair
    of a call eligible for the gateway's semantic near-match tier.
    """

    method: str
    purpose: str
    normalize: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    semantic_terms: Optional[Callable[[Tuple[Any, ...], Dict[str, Any]],
                                      Tuple[Any, Any]]] = None

    def build(self, model: Any, args: Sequence[Any], kwargs: Mapping[str, Any]) -> Call:
        """The canonical call; a ``TypeError`` for arguments the method refuses."""
        signature, positional, defaults = _layout(type(model), self.method, self.purpose)
        bound = signature.bind(model, *args, **kwargs).arguments
        values = [bound[name] for name in positional]
        call_kwargs = dict(defaults)
        for name, value in bound.items():
            if name in defaults:
                call_kwargs[name] = value
            elif signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
                call_kwargs.update(value)
        for name, convert in self.normalize.items():
            if name in call_kwargs:
                call_kwargs[name] = convert(call_kwargs[name])
            else:
                index = positional.index(name)
                values[index] = convert(values[index])
        return tuple(values), call_kwargs


def declare(*specs: CallSpec) -> Dict[str, CallSpec]:
    """A model's ``CALLS`` table: method name -> its spec."""
    return {spec.method: spec for spec in specs}


def spec_of(model: Any, method: str) -> CallSpec:
    """The declared spec of ``model.method``; a ``KeyError`` names undeclared ones."""
    spec = getattr(type(model), "CALLS", {}).get(method)
    if spec is None:
        raise KeyError(f"{type(model).__name__}.{method} is not a declared model call")
    return spec
