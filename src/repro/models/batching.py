"""True batched execution for the simulated models.

A real serving stack answers many same-kind requests in one invocation: the
prompt preamble (instructions, few-shot examples, request framing) is paid
once per batch, each member adds only its marginal content, duplicate
members share a single computation, and the whole batch costs one model
round trip of latency.  :func:`plan_batch` reproduces that cost shape for
the simulated models without touching their serial semantics:

* each member's result is computed by calling the member's *own* model's
  serial method (so batched results are bit-identical to serial ones, per
  lexicon, per seed), with the charges diverted through
  :meth:`~repro.models.cost.CostMeter.capture` — pricing, not paying;
* the batch total is ``max(setup) + sum(marginal content)`` over *distinct*
  members, where ``setup`` is the model's ``BATCH_OVERHEAD_TOKENS`` share of
  each serial price — the sub-linear formula the ROADMAP asks for;
* the total is split back across members proportionally to their serial
  price, so every member still pays its fair share.

The gateway's one executor (:meth:`repro.gateway.batching.MicroBatcher.execute`)
is the only caller: every vector of model calls
(:meth:`repro.models.base.ModelSuite.call_many`) reaches it through the
gateway funnel, and it bills each batch through :func:`record_shares`: one
summed share on the batch's one cost meter.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.models.cost import CostMeter, family_latency


@dataclass
class BatchMember:
    """One logical call inside a batch: a bound method invocation."""

    model: Any
    method: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    # Identity used for in-batch deduplication: members sharing a key are
    # the same request and share one computation.  None = always distinct.
    key: Optional[Any] = None

    @property
    def purpose(self) -> str:
        return str(self.kwargs.get("purpose") or self.method)


@dataclass
class MemberOutcome:
    """What one member gets back: its result slice and its token share."""

    result: Any = None
    error: Optional[BaseException] = None
    serial_prompt: int = 0        # what this member would have paid serially
    serial_completion: int = 0
    charge_prompt: int = 0        # its share of the batched invocation
    charge_completion: int = 0
    latency_share_s: float = 0.0

    @property
    def serial_tokens(self) -> int:
        return self.serial_prompt + self.serial_completion

    @property
    def charged_tokens(self) -> int:
        return self.charge_prompt + self.charge_completion

    @property
    def tokens_saved(self) -> int:
        return max(0, self.serial_tokens - self.charged_tokens)


@dataclass
class BatchPlan:
    """A fully costed batched invocation, ready to record and deliver."""

    outcomes: List[MemberOutcome]
    prompt_tokens: int = 0        # the single invocation's totals
    completion_tokens: int = 0
    serial_tokens: int = 0        # what the members would have cost serially
    latency_s: float = 0.0        # one invocation's synthetic latency
    size: int = 0                 # members that executed successfully

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def tokens_saved(self) -> int:
        return max(0, self.serial_tokens - self.total_tokens)


def _overhead_of(model: Any) -> int:
    """The shared prompt/setup tokens one serial call of this model embeds."""
    return max(0, int(getattr(model, "BATCH_OVERHEAD_TOKENS", 0)))


def _split(amount: int, weights: Sequence[int]) -> List[int]:
    """Split ``amount`` across members proportionally to ``weights``.

    Integer shares that sum exactly to ``amount``; the remainder goes to the
    earliest members, one token each, so no session is over- or
    under-charged by more than a token.
    """
    n = len(weights)
    if n == 0:
        return []
    total_weight = sum(weights)
    if total_weight <= 0:
        base, extra = divmod(amount, n)
        return [base + (1 if i < extra else 0) for i in range(n)]
    shares = [amount * w // total_weight for w in weights]
    remainder = amount - sum(shares)
    for i in range(remainder):
        shares[i % n] += 1
    return shares


def plan_batch(members: Sequence[BatchMember]) -> BatchPlan:
    """Execute ``members`` as one batched invocation and cost it sub-linearly.

    Results are element-wise identical to serial execution (each distinct
    member runs its own model's serial method once; duplicates receive
    private copies of the representative's result).  A member whose
    execution raises gets the exception in its outcome — the rest of the
    batch is unaffected.
    """
    outcomes = [MemberOutcome() for _ in members]
    # 1. Execute each *distinct* member once, pricing (not paying) its
    #    serial cost through the capture frame.
    representatives: Dict[Any, int] = {}
    member_of: List[int] = []            # member index -> its representative
    for index, member in enumerate(members):
        key = member.key if member.key is not None else ("#unique", index)
        rep = representatives.get(key)
        if rep is not None:
            member_of.append(rep)
            continue
        representatives[key] = index
        member_of.append(index)
        with CostMeter.capture() as records:
            try:
                result = getattr(member.model, member.method)(
                    *member.args, **member.kwargs)
            except Exception as error:  # noqa: BLE001 - delivered per member
                outcomes[index].error = error
                continue
        outcomes[index].result = result
        outcomes[index].serial_prompt = sum(r.prompt_tokens for r in records)
        outcomes[index].serial_completion = sum(
            r.completion_tokens for r in records)

    # 2. Propagate representative outcomes to duplicates (errors included —
    #    an identical request fails identically) and collect the live set.
    alive: List[int] = []
    for index, rep in enumerate(member_of):
        outcome, source = outcomes[index], outcomes[rep]
        if source.error is not None:
            outcome.error = source.error
            continue
        if index != rep:
            outcome.result = copy.deepcopy(source.result)
            outcome.serial_prompt = source.serial_prompt
            outcome.serial_completion = source.serial_completion
        alive.append(index)

    plan = BatchPlan(outcomes=outcomes, size=len(alive))
    if not alive:
        return plan

    # 3. The sub-linear batch price: each distinct execution's prompt embeds
    #    up to ``overhead`` setup tokens (never its whole prompt — at least
    #    one content token stays marginal); the batch pays the largest setup
    #    once plus every distinct member's marginal content.
    groups: Dict[int, List[int]] = {}
    for i in alive:
        groups.setdefault(member_of[i], []).append(i)
    setup_of: Dict[int, int] = {}
    shared_setup = 0
    content_prompt = 0
    content_completion = 0
    for rep in groups:
        out = outcomes[rep]
        setup = min(_overhead_of(members[rep].model),
                    max(0, out.serial_prompt - 1))
        setup_of[rep] = setup
        shared_setup = max(shared_setup, setup)
        content_prompt += out.serial_prompt - setup
        content_completion += out.serial_completion
    plan.prompt_tokens = shared_setup + content_prompt
    plan.completion_tokens = content_completion
    plan.serial_tokens = sum(outcomes[i].serial_tokens for i in alive)

    # 4. Fair shares: every duplicate group splits its own execution's
    #    marginal content evenly; the single shared setup is split across
    #    all live members.  Shares sum exactly to the batch price.
    for rep, group in groups.items():
        prompt_shares = _split(outcomes[rep].serial_prompt - setup_of[rep],
                               [1] * len(group))
        completion_shares = _split(outcomes[rep].serial_completion,
                                   [1] * len(group))
        for position, i in enumerate(group):
            outcomes[i].charge_prompt = prompt_shares[position]
            outcomes[i].charge_completion = completion_shares[position]
    setup_shares = _split(shared_setup, [1] * len(alive))
    for position, i in enumerate(alive):
        outcomes[i].charge_prompt += setup_shares[position]
    model_name = getattr(members[alive[0]].model, "name",
                         type(members[alive[0]].model).__name__)
    plan.latency_s = family_latency(model_name, plan.total_tokens)
    for i in alive:
        outcomes[i].latency_share_s = plan.latency_s / len(alive)
    return plan


def record_shares(members: Sequence[BatchMember], plan: BatchPlan) -> None:
    """Charge a batch's live members' summed shares to their one model's
    cost meter, as one :class:`~repro.models.cost.BatchedModelCall`.

    Every batch is one chunk of one caller's vector on one model (the
    gateway funnel takes a single model), so it has one meter.
    """
    alive = [(member, outcome) for member, outcome in zip(members, plan.outcomes)
             if outcome.error is None]
    if not alive:
        return
    first = alive[0][0]
    meter = getattr(first.model, "cost_meter", None)
    if meter is None:
        return
    meter.record_batched(
        getattr(first.model, "name", type(first.model).__name__),
        first.purpose,
        sum(outcome.charge_prompt for _, outcome in alive),
        sum(outcome.charge_completion for _, outcome in alive),
        batch_size=plan.size, members=len(alive),
        serial_tokens=sum(outcome.serial_tokens for _, outcome in alive),
        latency_s=sum(outcome.latency_share_s for _, outcome in alive))

