"""The gateway funnel: every model call, as a vector of same-method calls.

:class:`GatewayBatchClient` is the one place the gateway's tier stack is
written.  A serial call is a one-call vector
(:meth:`~repro.gateway.gateway.ModelGateway.invoke` is that adapter); every
model-calling FAO body and both view populators hand over whole column
vectors through :meth:`~repro.models.base.ModelSuite.call_many`, in chunks
of one call when the optimizer profiles a variant.  For each call, cheapest
tier first:

1. **exact cache** — the shared LRU answers identical requests
   (:mod:`repro.gateway.cache`), so a vector that partially overlaps earlier
   traffic only executes its misses;
2. **semantic near-match** — predicate calls are offered to the signature
   lookup (:mod:`repro.gateway.semantic`).  A signature the tier already
   served answers from its per-signature memo without an embedding; the
   memo is dropped for a group on every ``put`` into it and every eviction
   from it, and entirely on ``clear()``.  Only a memo miss embeds the
   signature, and that vector is what a computed answer is stored under;
3. **coalescing** — a miss another caller is already executing waits for
   that execution (:mod:`repro.gateway.coalesce`);
4. **execution** — misses run in chunks of whole key groups, at most
   ``max_batch`` members each, through the one executor
   :meth:`repro.gateway.batching.MicroBatcher.execute` (one admission slot
   per chunk, in-batch dedup, sub-linear price ``max(setup) +
   sum(marginal)``).  A chunk's size picks its route: one member runs as
   a metered serial call under an admission slot
   (:meth:`~repro.gateway.batching.MicroBatcher.submit`), two or more as
   one batched invocation.  With batching off a vector is a serial loop of
   one-call vectors, so every miss takes the one-member route.

Every executed member is written back to the exact and semantic tiers and
published to its coalesced followers.  Hits are free and tallied as
``tokens_saved``; executed members charge the session's own meter and the
admission spend ledger, and the sub-linear discount lands in
``batch_tokens_saved``.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.gateway.fingerprint import (
    canonicalize,
    contains_uri,
    lexicon_fingerprint_of,
    request_key_from_canonical,
    semantic_group,
)
from repro.gateway.semantic import term_signature
from repro.models.batching import BatchMember, MemberOutcome
from repro.obs.trace import record_span, span as obs_span
from repro.sched.cancel import check_current_cancel

#: One logical call: ``(positional args, keyword args)``.
BatchCall = Tuple[Tuple[Any, ...], Dict[str, Any]]


class _Miss(NamedTuple):
    """One call no tier answered: where its result goes and how to store it."""

    index: int
    key: Any
    volatile: bool
    member: BatchMember
    # (group, vector, signature) to store the computed answer under in the
    # semantic tier, or None for ineligible members and in-vector duplicates.
    semantic: Any


class GatewayBatchClient:
    """One session's handle on the gateway funnel."""

    #: Bound on the per-session ``batch_sizes`` audit list; consumers (the
    #: engine's per-operator records) only ever read recent suffixes.
    MAX_RECORDED_SIZES = 4096

    def __init__(self, client):
        self._client = client

    def invoke(self, model: Any, method: str, calls: Sequence[BatchCall], *,
               semantic_terms_of: Optional[Callable[..., Any]] = None
               ) -> List[Any]:
        """Answer a homogeneous vector of calls on one bare model.

        Results are element-wise identical to serial execution, in call
        order.  Every member of an executing chunk runs and every member
        that succeeds is billed; then the first member error is raised.
        (A serial loop would instead stop at the first failure.)

        ``semantic_terms_of(args, kwargs)`` marks calls eligible for the
        semantic near-match tier: when the tier is enabled, every
        exact-cache miss is first offered to its signature lookup, and
        computed answers are stored back under their signatures.

        Spans: one aggregate ``model`` span per hit outcome, one per
        executed chunk and one per follower wait, so a one-call invocation
        records exactly one.
        """
        client = self._client
        gateway = client.gateway
        cfg = gateway.config
        if len(calls) > 1 and not cfg.enable_batching:
            # Unbatched, a vector is a serial loop: each call sees what the
            # calls before it wrote to the exact and semantic tiers.
            return [self.invoke(model, method, [call],
                                semantic_terms_of=semantic_terms_of)[0]
                    for call in calls]
        semantic_active = (cfg.enable_semantic and cfg.enable_cache
                           and semantic_terms_of is not None)
        model_name = getattr(model, "name", type(model).__name__)
        call_kind = f"{model_name}.{method}"
        lexicon_fp = lexicon_fingerprint_of(model)
        results: List[Any] = [None] * len(calls)
        # Misses grouped by key, in first-occurrence order: duplicates must
        # land in the same chunk as their representative so in-batch dedup
        # (not a re-execution in a later chunk) answers them.
        pending: "OrderedDict[Any, List[_Miss]]" = OrderedDict()
        # Cache-served calls aggregate into one ``model`` span per outcome —
        # a span per hit member would dominate tracing cost on hot batches.
        hit_members = hit_tokens = near_members = near_tokens = 0
        for index, (args, kwargs) in enumerate(calls):
            args, kwargs = tuple(args), dict(kwargs)
            # The purpose tag only labels the cost record (it never reaches
            # the model), so it must not partition results: two operators
            # issuing the byte-identical call under different node names
            # share one execution.
            keyed = {k: v for k, v in kwargs.items() if k != "purpose"}
            canonical_args = canonicalize(args)
            canonical_kwargs = canonicalize(keyed)
            key = request_key_from_canonical(model_name, method, canonical_args,
                                             canonical_kwargs, lexicon_fp)
            semantic_info = None
            if key not in pending:
                if cfg.enable_cache:
                    entry = gateway.cache.get(key)
                    if entry is not None:
                        client.counters.hits += 1
                        client.counters.tokens_saved += entry.token_cost
                        gateway.note_event("hits", 1, entry.token_cost,
                                           client.session_id)
                        hit_members += 1
                        hit_tokens += entry.token_cost
                        results[index] = entry.result
                        continue
                if semantic_active:
                    # A near-identical already-answered signature serves this
                    # call without executing it.  Non-purpose kwargs (e.g.
                    # match_fraction's threshold=) change the answer, so they
                    # partition the signature space.
                    group = semantic_group(model_name, method,
                                           canonical_kwargs, lexicon_fp)
                    signature = term_signature(*semantic_terms_of(args, kwargs))
                    near, probes, vector = gateway.semantic.search(group,
                                                                   signature)
                    if probes:
                        gateway.note_event("semantic_probes", probes, 0,
                                           client.session_id)
                    if near is not None:
                        client.counters.semantic_hits += 1
                        client.counters.tokens_saved += near.token_cost
                        gateway.note_event("semantic_hits", 1, near.token_cost,
                                           client.session_id)
                        near_members += 1
                        near_tokens += near.token_cost
                        results[index] = near.result
                        continue
                    semantic_info = (group, vector, signature)
            pending.setdefault(key, []).append(_Miss(
                index, key,
                contains_uri(canonical_args) or contains_uri(canonical_kwargs),
                BatchMember(model=model, method=method, args=args,
                            kwargs=kwargs, key=key),
                semantic_info))

        if hit_members:
            record_span(call_kind, kind="model", model=model_name, method=method,
                        outcome="exact-hit", members=hit_members,
                        tokens_saved=hit_tokens)
        if near_members:
            record_span(call_kind, kind="model", model=model_name, method=method,
                        outcome="semantic-hit", members=near_members,
                        tokens_saved=near_tokens)

        # Pack whole key groups into chunks (a group never straddles a
        # boundary; an oversized group still dedups to one execution).
        chunks: List[List[_Miss]] = []
        current: List[_Miss] = []
        for key_group in pending.values():
            if current and len(current) + len(key_group) > gateway.batcher.max_batch:
                chunks.append(current)
                current = []
            current.extend(key_group)
        if current:
            chunks.append(current)
        # Members an *other* caller is already executing: (index, slot).
        # Waited on only after every own chunk has executed and published —
        # two sessions batch-following each other therefore always make
        # progress (each completes its own leaderships before waiting).
        follower_waits: List[Tuple[int, Any]] = []
        for chunk in chunks:
            # A cancelled (deadline-lapsed) request stops before paying for
            # another chunk.  The quota check comes before joining the
            # in-flight table: an over-quota tenant must be refused here, not
            # become a leader whose rejection would propagate to under-quota
            # followers.  It overshoots by at most one chunk.
            check_current_cancel()
            if not client.quota_exempt:
                gateway.admission.precheck(client.tenant_id)
            # Lead each distinct miss in the in-flight table (so concurrent
            # callers coalesce onto this execution); members already in
            # flight elsewhere leave the chunk and are waited on at the end.
            executing: List[_Miss] = []
            led_slots: Dict[Any, Any] = {}
            for miss in chunk:
                if cfg.enable_coalescing and miss.key not in led_slots:
                    leader, slot = gateway.coalescer.begin(miss.key)
                    if not leader:
                        follower_waits.append((miss.index, slot))
                        continue
                    led_slots[miss.key] = slot
                executing.append(miss)
            if not executing:
                continue
            # One ``model`` span per executed chunk, on this session's own
            # trace.
            with obs_span(call_kind, kind="model", model=model_name,
                          method=method) as chunk_sp:
                members = [miss.member for miss in executing]
                try:
                    if len(members) == 1:
                        outcomes = [gateway.batcher.submit(call_kind, members[0]).result()]
                    else:
                        outcomes = gateway.batcher.execute(call_kind, members)
                except BaseException as error:
                    for slot in led_slots.values():
                        gateway.coalescer.fail(slot, error)
                    raise
                self._publish(executing, outcomes, led_slots, results, chunk_sp)

        # Collect members another caller computed while this vector ran.
        # Each wait is its own ``model`` span on *this* session's trace, so
        # cross-session coalescing attributes to every follower's query.
        for index, slot in follower_waits:
            with obs_span(call_kind, kind="model", model=model_name,
                          method=method) as follower_sp:
                result, token_cost = gateway.coalescer.wait(slot)
                client.counters.coalesced += 1
                client.counters.tokens_saved += token_cost
                gateway.note_event("coalesced", 1, token_cost, client.session_id)
                follower_sp.tag(outcome="coalesced-follower",
                                tokens_saved=token_cost)
            results[index] = copy.deepcopy(result)
        return results

    def _publish(self, executing: List[_Miss], outcomes: List[MemberOutcome],
                 led_slots: Dict[Any, Any], results: List[Any], chunk_sp: Any
                 ) -> None:
        """Bill one executed chunk and publish every member's outcome.

        Results go to the caller, representatives to the exact and semantic
        tiers and to the in-flight followers.  Slot completion lives in a
        finally, so a failed cache insert can never strand a follower; the
        first member error is raised once everything else is published.
        """
        client = self._client
        gateway = client.gateway
        counters = client.counters
        alive = [outcome for outcome in outcomes if outcome.error is None]
        charged = sum(outcome.charged_tokens for outcome in alive)
        saved = max(0, sum(outcome.serial_tokens for outcome in alive) - charged)
        first_error = None
        try:
            # A chunk whose members all failed executed nothing: nothing is
            # billed (the errors still propagate below).
            if alive:
                counters.misses += len(alive)
                counters.tokens_charged += charged
                gateway.note_event("misses", len(alive), charged, client.session_id)
                gateway.admission.charge(client.tenant_id, charged)
                if saved:
                    counters.batch_tokens_saved += saved
                    gateway.note_event("batch_saved", 0, saved, client.session_id)
                    chunk_sp.tag(batch_tokens_saved=saved)
                batched = len(outcomes) > 1
                chunk_sp.tag(outcome="batched-chunk" if batched else "executed",
                             tokens=charged)
                if batched:
                    # A batched invocation, the unit BatchStats counts; a
                    # one-member chunk ran as a serial call and is not one.
                    counters.batch_calls += 1
                    counters.batch_sizes.append(len(alive))
                    if len(counters.batch_sizes) > self.MAX_RECORDED_SIZES:
                        # Long-lived clients (the service's corpus loader)
                        # must not grow this forever.
                        del counters.batch_sizes[:-self.MAX_RECORDED_SIZES // 2]
                    chunk_sp.tag(batch_size=len(alive))
            published = set()
            for miss, outcome in zip(executing, outcomes):
                slot = led_slots.get(miss.key)
                if outcome.error is not None:
                    first_error = first_error or outcome.error
                    if slot is not None:
                        gateway.coalescer.fail(slot, outcome.error)
                        del led_slots[miss.key]
                    continue
                results[miss.index] = outcome.result
                if miss.key in published:
                    continue
                published.add(miss.key)
                if gateway.config.enable_cache:
                    gateway.cache.note_miss()
                    gateway.cache.put(miss.key, outcome.result,
                                      outcome.charged_tokens,
                                      volatile=miss.volatile)
                if miss.semantic is not None:
                    group, vector, signature = miss.semantic
                    gateway.semantic.put(group, vector, signature,
                                         outcome.result, outcome.charged_tokens)
                if slot is not None:
                    gateway.coalescer.complete(slot, outcome.result,
                                               outcome.charged_tokens)
                    del led_slots[miss.key]
        finally:
            # Anything still led here hit an infrastructure failure (e.g. the
            # cache insert raised): release its followers.
            for key, slot in led_slots.items():
                outcome = next((o for m, o in zip(executing, outcomes)
                                if m.key == key and o.error is None), None)
                if outcome is not None:
                    gateway.coalescer.complete(slot, outcome.result,
                                               outcome.charged_tokens)
                else:
                    gateway.coalescer.fail(
                        slot, first_error
                        or RuntimeError("batched member never executed"))
        if first_error is not None:
            raise first_error
