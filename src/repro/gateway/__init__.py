"""The model gateway: shared cache, coalescing, batching, admission.

See :mod:`repro.gateway.gateway` for the tier stack,
:mod:`repro.gateway.proxy` for how a model's declared calls are routed
through it, and
:mod:`repro.gateway.vectorized` for the funnel every call goes through.
"""

from repro.gateway.admission import AdmissionController
from repro.gateway.ann import AnnStats, LSHIndex
from repro.gateway.batching import BatchStats, KindBatchStats, MicroBatcher
from repro.gateway.cache import ExactResultCache
from repro.gateway.coalesce import RequestCoalescer
from repro.gateway.fingerprint import RequestKey, canonicalize, request_key
from repro.gateway.gateway import (
    GatewayConfig,
    ModelGateway,
    SessionCounters,
    SessionGatewayClient,
)
from repro.gateway.proxy import GatewayModelProxy
from repro.gateway.semantic import SEMANTIC_MODES, SemanticNearCache
from repro.gateway.vectorized import GatewayBatchClient

__all__ = [
    "AdmissionController",
    "AnnStats",
    "BatchStats",
    "ExactResultCache",
    "GatewayBatchClient",
    "KindBatchStats",
    "GatewayConfig",
    "GatewayModelProxy",
    "LSHIndex",
    "MicroBatcher",
    "ModelGateway",
    "RequestCoalescer",
    "RequestKey",
    "SEMANTIC_MODES",
    "SemanticNearCache",
    "SessionCounters",
    "SessionGatewayClient",
    "canonicalize",
    "request_key",
]
