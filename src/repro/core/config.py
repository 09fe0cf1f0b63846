"""Configuration for a KathDB instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.datamodel.lineage import LINEAGE_LEVEL_OFF, LINEAGE_LEVEL_ROW, LINEAGE_LEVEL_TABLE
from repro.errors import KathDBError


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
    ocr_error_rate: float = 0.02
    # Lineage tracking level: "row", "table", or "off".
    lineage_level: str = LINEAGE_LEVEL_ROW
    # Optimizer behaviour.
    enable_pushdown: bool = True
    enable_fusion: bool = False
    explore_variants: bool = True
    max_variants: int = 3
    parallel_codegen: bool = False
    variant_overrides: Dict[str, str] = field(default_factory=dict)
    optimizer_sample_size: int = 4
    min_accuracy: float = 0.88
    # Offline profiling: reuse per-(family, variant) profiling statistics across
    # queries instead of re-profiling every candidate on sample rows.
    enable_profile_cache: bool = False
    profile_cache_path: Optional[Union[str, Path]] = None
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
    # Vectorized execution: batchable FAO bodies and the view populators
    # collect per-row model inputs into column vectors and issue one batched
    # call per chunk of this many rows (sub-linear token cost; results are
    # bit-identical to the serial path).  Disabling restores row-at-a-time
    # model access everywhere.
    enable_vectorized_execution: bool = True
    vectorized_batch_size: int = 32
    # Parser interaction modes.
    proactive_clarification: bool = True
    reactive_correction: bool = True
    max_correction_rounds: int = 4
    # Execution behaviour.
    monitor_enabled: bool = True
    monitor_sample_size: int = 5
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
    # Model gateway: the shared front door for all foundation-model traffic
    # (service sessions only; the legacy single-user facade keeps its
    # historical direct accounting).  See src/repro/gateway/.
    enable_model_gateway: bool = True
    # Exact-match result cache (and the semantic tier riding on it).
    enable_model_cache: bool = True
    gateway_cache_entries: int = 4096
    gateway_cache_token_budget: Optional[int] = None
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
    # Micro-batching of batchable kinds (embeddings, NER, detector).  A None
    # window auto-selects: a few ms when model latency is simulated (there is
    # wall-clock to amortize), zero (pure pass-through batching) otherwise.
    enable_micro_batching: bool = True
    gateway_batch_window_s: Optional[float] = None
    gateway_max_batch: int = 32
    # Semantic near-match tier for embeddings-backed predicates.  On by
    # default since the ANN graduation: benchmarks/bench_semantic.py measures
    # the tier's accuracy against exact execution, and the shipped default
    # threshold is the one it proves produces zero false accepts on the
    # scoring workload (below-threshold lookups always fall back to exact
    # execution).  The sweep shows looser thresholds (0.97, 0.995) serving
    # wrong answers to near-boundary requests — one extra term on a long
    # candidate list — so the default only reuses answers whose signatures
    # embed identically (case/order/format variants of the same request,
    # which exact caching cannot dedup).  Disable for bit-identical-to-
    # uncached runs.
    enable_semantic_cache: bool = True
    semantic_similarity_threshold: float = 0.999
    # Lookup structure: "ann" (multi-probe LSH over signature vectors,
    # lookup cost independent of entry count) or "linear" (exhaustive scan).
    semantic_cache_mode: str = "ann"
    # ANN geometry: hyperplanes per bucket key (more planes = smaller,
    # better-separated buckets) and near-bucket probes per lookup (more
    # probes = higher recall at slightly higher lookup cost).
    semantic_ann_planes: int = 16
    semantic_ann_probes: int = 8
    # Admission control.
    gateway_max_concurrency: int = 16
    session_token_quota: Optional[int] = None
    # LRU bound on the gateway's per-session stats/ledger entries.  Lower it
    # for workloads dominated by throwaway per-request sessions (e.g. steady
    # benchmark loops) so the tracked set reaches a fixed size instead of
    # growing toward the default for hours.
    gateway_max_tracked_sessions: int = 4096
    # Observability (src/repro/obs/): per-query trace trees fed into the
    # service's MetricsRegistry and trace sinks.  Tracing is on by default —
    # benchmarks/bench_observability.py holds its overhead under 5% wall
    # time and 0 extra tokens (spans never call models).
    enable_tracing: bool = True
    # How many finished traces service.traces() retains in memory.
    trace_buffer_size: int = 256
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
    # Worker-slot reservations per priority class ({"interactive": 2, ...}).
    # Empty = auto split: interactive half, batch a quarter, background the
    # rest.  Reservations are minimum guarantees; idle slots are borrowable.
    sched_class_reservations: Dict[str, int] = field(default_factory=dict)
    # Deficit-round-robin weights per tenant id (default 1.0 each): a tenant
    # with weight 2 drains twice as fast as a weight-1 tenant under load.
    sched_tenant_weights: Dict[str, float] = field(default_factory=dict)
    # Priority class used when a request names none.
    sched_default_priority: str = "interactive"

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
        if self.vectorized_batch_size < 1:
            raise KathDBError("vectorized_batch_size must be at least 1")
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
        if self.gateway_batch_window_s is not None and self.gateway_batch_window_s < 0:
            raise KathDBError("gateway_batch_window_s must be non-negative")
        if self.gateway_max_batch < 1:
            raise KathDBError("gateway_max_batch must be at least 1")
        if not 0.0 < self.semantic_similarity_threshold <= 1.0:
            raise KathDBError("semantic_similarity_threshold must be in (0, 1]")
        if self.semantic_cache_mode not in ("linear", "ann"):
            raise KathDBError("semantic_cache_mode must be 'linear' or 'ann'")
        if not 1 <= self.semantic_ann_planes <= 64:
            raise KathDBError("semantic_ann_planes must be in [1, 64]")
        if self.semantic_ann_probes < 0:
            raise KathDBError("semantic_ann_probes must be non-negative")
        if self.gateway_max_concurrency < 1:
            raise KathDBError("gateway_max_concurrency must be at least 1")
        if self.gateway_max_tracked_sessions < 1:
            raise KathDBError("gateway_max_tracked_sessions must be at least 1")
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
        if self.trace_buffer_size < 1:
            raise KathDBError("trace_buffer_size must be at least 1")
        if self.sched_queue_limit < 1:
            raise KathDBError("sched_queue_limit must be at least 1")
        from repro.sched.scheduler import PRIORITY_CLASSES
        if self.sched_default_priority not in PRIORITY_CLASSES:
            raise KathDBError(
                f"sched_default_priority must be one of {PRIORITY_CLASSES}")
        for sched_class, slots in self.sched_class_reservations.items():
            if sched_class not in PRIORITY_CLASSES:
                raise KathDBError(
                    f"unknown priority class in sched_class_reservations: "
                    f"{sched_class!r}")
            if int(slots) < 0:
                raise KathDBError("sched_class_reservations values must be >= 0")
        for tenant, weight in self.sched_tenant_weights.items():
            if float(weight) <= 0:
                raise KathDBError(
                    f"sched_tenant_weights[{tenant!r}] must be positive")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise KathDBError("slow_query_ms must be non-negative when set")

    def effective_batch_size(self) -> int:
        """The vectorization chunk size execution should use (1 = serial).

        Clamped to ``gateway_max_batch`` when the gateway is on: the batch
        client re-chunks at that bound anyway, and the optimizer's setup
        pricing must count the same number of chunks execution will pay for.
        """
        if not self.enable_vectorized_execution:
            return 1
        if self.enable_model_gateway:
            return min(self.vectorized_batch_size, self.gateway_max_batch)
        return self.vectorized_batch_size

    def gateway_config(self):
        """The :class:`~repro.gateway.gateway.GatewayConfig` these knobs imply,
        or None when the gateway is disabled."""
        if not self.enable_model_gateway:
            return None
        from repro.gateway.gateway import GatewayConfig
        window = self.gateway_batch_window_s
        if window is None:
            window = 0.004 if self.simulate_model_latency > 0 else 0.0
        return GatewayConfig(
            enable_cache=self.enable_model_cache,
            cache_entries=self.gateway_cache_entries,
            cache_token_budget=self.gateway_cache_token_budget,
            enable_coalescing=self.enable_request_coalescing,
            enable_batching=self.enable_micro_batching,
            batch_window_s=window,
            max_batch=self.gateway_max_batch,
            enable_semantic=self.enable_semantic_cache,
            semantic_threshold=self.semantic_similarity_threshold,
            semantic_mode=self.semantic_cache_mode,
            semantic_planes=self.semantic_ann_planes,
            semantic_probes=self.semantic_ann_probes,
            max_concurrency=self.gateway_max_concurrency,
            session_token_quota=self.session_token_quota,
            max_tracked_sessions=self.gateway_max_tracked_sessions)
