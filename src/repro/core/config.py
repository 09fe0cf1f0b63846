"""Configuration for a KathDB instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.datamodel.lineage import LINEAGE_LEVEL_OFF, LINEAGE_LEVEL_ROW, LINEAGE_LEVEL_TABLE
from repro.errors import KathDBError

#: Cosine threshold of the service's semantic near-match tier.  Below it a
#: lookup falls back to exact execution.  tests/test_semantic_ann.py replays
#: a scoring-shaped request stream against exact execution: this value serves
#: near-hits with zero false accepts, while the tier's original 0.97 serves
#: wrong answers to near-boundary requests (one extra term on a long
#: candidate list).  It only reuses answers whose signatures embed
#: identically: case/order/format variants of the same request, which exact
#: caching cannot dedup.
SEMANTIC_SIMILARITY_THRESHOLD = 0.999


@dataclass
class KathDBConfig:
    """Everything tunable about a KathDB instance.

    The defaults reproduce the paper's prototype behaviour; the benchmark
    harness varies individual knobs (lineage level, rewrites, fusion, variant
    overrides, interaction modes) for the ablations.
    """

    seed: int = 0
    # Simulated-model noise.
    vlm_error_rate: float = 0.05
    # Lineage tracking level: "row", "table", or "off".
    lineage_level: str = LINEAGE_LEVEL_ROW
    # Optimizer behaviour.
    enable_fusion: bool = False
    explore_variants: bool = True
    max_variants: int = 3
    variant_overrides: Dict[str, str] = field(default_factory=dict)
    # Offline profiling: reuse per-(family, variant) profiling statistics across
    # queries instead of re-profiling every candidate on sample rows.  The
    # statistics live in memory, or in the skill store's backend when the
    # store is enabled.
    enable_profile_cache: bool = False
    # Durable skill store: persist validated FAOs (code + signature
    # fingerprint + profile + critic verdict) and reuse them across restarts
    # after revalidation on sampled live data.  Backends: "memory" (default),
    # "file" (atomic JSON directory), "sqlite".  Setting a path with the
    # default backend promotes it to "file".  When the store is enabled the
    # profile cache persists through the same backend.
    enable_skill_store: bool = False
    skill_store_backend: str = "memory"
    skill_store_path: Optional[Union[str, Path]] = None
    # Minimum cosine similarity between signature texts for a stored skill to
    # be considered a near-match candidate for a new predicate.
    skill_retrieval_threshold: float = 0.9
    # Parser interaction modes.
    proactive_clarification: bool = True
    reactive_correction: bool = True
    max_correction_rounds: int = 4
    # Execution behaviour.
    monitor_enabled: bool = True
    max_repair_rounds: int = 3
    # Fault injection for repair demonstrations (node name -> fault kind).
    fault_injection: Dict[str, str] = field(default_factory=dict)
    # Where generated functions are persisted (None = in-memory only).
    workspace: Optional[Union[str, Path]] = None
    # Service layer: default worker-thread count for query batches.
    service_max_workers: int = 4
    # Prepared queries: cache parse+optimize results keyed on the normalized
    # NL query, the catalog fingerprint, and the user's interaction script.
    enable_prepared_cache: bool = True
    prepared_cache_size: int = 64
    # When > 0, every simulated model call sleeps its synthetic latency times
    # this factor (like a real network-bound model call would), so concurrency
    # benchmarks measure genuine overlap rather than GIL contention.
    simulate_model_latency: float = 0.0
    # Model gateway: the shared front door for all service foundation-model
    # traffic (the legacy single-user facade's default session rides a
    # private pass-through gateway instead, which these knobs do not
    # configure).  See src/repro/gateway/.
    # Exact-match result cache (and the semantic tier riding on it).
    enable_model_cache: bool = True
    gateway_cache_entries: int = 4096
    # Durable gateway cache: persist the exact tier's non-volatile entries
    # and the semantic tier's (group, signature, answer) records through the
    # same pluggable backends as the skill store ("memory" = process-local
    # only, "file" = atomic JSON directory, "sqlite").  A restarted service
    # pointed at the same path starts with a warm exact cache and rebuilds
    # the semantic LSH index from the persisted signatures.  Setting a path
    # with the default backend promotes it to "file".
    gateway_cache_backend: str = "memory"
    gateway_cache_path: Optional[Union[str, Path]] = None
    # In-flight coalescing of identical concurrent calls.
    enable_request_coalescing: bool = True
    # Batching: a chunk of two or more misses from one caller's vector runs
    # as one batched invocation at the sub-linear price; off, every miss
    # runs as its own metered call.
    enable_micro_batching: bool = True
    # Semantic near-match tier for embeddings-backed predicates, at
    # SEMANTIC_SIMILARITY_THRESHOLD.  On by default since the ANN graduation;
    # disable for bit-identical-to-uncached runs.
    enable_semantic_cache: bool = True
    # ANN geometry: hyperplanes per bucket key (more planes = smaller,
    # better-separated buckets) and near-bucket probes per lookup (more
    # probes = higher recall at slightly higher lookup cost).
    semantic_ann_planes: int = 16
    semantic_ann_probes: int = 8
    # Admission control.
    session_token_quota: Optional[int] = None
    # Observability (src/repro/obs/): per-query trace trees fed into the
    # service's MetricsRegistry and trace sinks.  Tracing is on by default:
    # spans never call models, so it costs 0 tokens
    # (tests/test_observability.py), and benchmarks/e2e runs with it on, so
    # its wall cost is inside every end-to-end metric.
    enable_tracing: bool = True
    # When set, every finished trace is appended to this JSONL file.
    trace_jsonl_path: Optional[Union[str, Path]] = None
    # When set, queries slower than this end-to-end land in the service's
    # SlowQueryLog ring (surfaced by service.describe() and --slow-query-ms)
    # with their slowest operator span pinned.
    slow_query_ms: Optional[float] = None
    # Admission scheduler (src/repro/sched/), the only admission path: per-
    # tenant fair-share queues inside priority classes, drained by deficit
    # round-robin over the service worker pool.  Per-tenant, per-class
    # bounded queue depth; submissions beyond it shed with reason
    # "backpressure" instead of blocking.
    sched_queue_limit: int = 64

    def __post_init__(self):
        if self.lineage_level not in (LINEAGE_LEVEL_ROW, LINEAGE_LEVEL_TABLE, LINEAGE_LEVEL_OFF):
            raise KathDBError(f"invalid lineage_level: {self.lineage_level!r}")
        if not 0.0 <= self.vlm_error_rate <= 1.0:
            raise KathDBError("vlm_error_rate must be in [0, 1]")
        if self.max_variants < 1:
            raise KathDBError("max_variants must be at least 1")
        if self.service_max_workers < 1:
            raise KathDBError("service_max_workers must be at least 1")
        if self.prepared_cache_size < 1:
            raise KathDBError("prepared_cache_size must be at least 1")
        if self.simulate_model_latency < 0:
            raise KathDBError("simulate_model_latency must be non-negative")
        if self.gateway_cache_entries < 1:
            raise KathDBError("gateway_cache_entries must be at least 1")
        if self.gateway_cache_path is not None and self.gateway_cache_backend == "memory":
            # A path means the caller wants durability; default to files.
            self.gateway_cache_backend = "file"
        if self.gateway_cache_backend not in ("memory", "file", "sqlite"):
            raise KathDBError(
                "gateway_cache_backend must be 'memory', 'file', or 'sqlite'")
        if self.gateway_cache_backend != "memory" and self.gateway_cache_path is None:
            raise KathDBError(
                f"gateway_cache_backend {self.gateway_cache_backend!r} "
                "requires gateway_cache_path")
        if not 1 <= self.semantic_ann_planes <= 64:
            raise KathDBError("semantic_ann_planes must be in [1, 64]")
        if self.semantic_ann_probes < 0:
            raise KathDBError("semantic_ann_probes must be non-negative")
        if self.skill_store_path is not None and self.skill_store_backend == "memory":
            # A path means the caller wants durability; default to files.
            self.skill_store_backend = "file"
        if self.skill_store_backend not in ("memory", "file", "sqlite"):
            raise KathDBError("skill_store_backend must be 'memory', 'file', or 'sqlite'")
        if self.enable_skill_store and self.skill_store_backend != "memory" \
                and self.skill_store_path is None:
            raise KathDBError(
                f"skill_store_backend {self.skill_store_backend!r} requires skill_store_path")
        if not 0.0 < self.skill_retrieval_threshold <= 1.0:
            raise KathDBError("skill_retrieval_threshold must be in (0, 1]")
        if self.session_token_quota is not None and self.session_token_quota < 1:
            raise KathDBError("session_token_quota must be positive when set")
        if self.sched_queue_limit < 1:
            raise KathDBError("sched_queue_limit must be at least 1")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise KathDBError("slow_query_ms must be non-negative when set")

    def gateway_config(self):
        """The :class:`~repro.gateway.gateway.GatewayConfig` these knobs imply."""
        from repro.gateway.gateway import GatewayConfig
        return GatewayConfig(
            enable_cache=self.enable_model_cache,
            cache_entries=self.gateway_cache_entries,
            enable_coalescing=self.enable_request_coalescing,
            enable_batching=self.enable_micro_batching,
            enable_semantic=self.enable_semantic_cache,
            semantic_threshold=SEMANTIC_SIMILARITY_THRESHOLD,
            semantic_planes=self.semantic_ann_planes,
            semantic_probes=self.semantic_ann_probes,
            session_token_quota=self.session_token_quota)
