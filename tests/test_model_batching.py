"""Tests for true batched model execution (`repro.models.batching`).

Covers the contract at the model layer: a vector of calls through
:meth:`~repro.models.base.ModelSuite.call_many` on a suite routed through a
pass-through gateway (no tier answers, every call executes) is
element-wise identical to serial calls
(bit-identical embeddings, same entities/boxes/text), charged as a single
:class:`~repro.models.cost.BatchedModelCall` whose token cost is sub-linear
(one shared prompt/setup overhead per batch + per-item marginal cost), with
in-batch deduplication of identical members — plus the cost-meter
thread-safety satellite.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import build_movie_corpus
from repro.gateway.gateway import GatewayConfig, ModelGateway
from repro.models.base import ModelSuite
from repro.models.batching import BatchMember, plan_batch
from repro.models.cost import BatchedModelCall, CostMeter, ModelCall


def pass_through_suite():
    return ModelSuite.create(seed=42, cost_meter=CostMeter()).routed(
        ModelGateway.pass_through(), "s")


@pytest.fixture()
def suite():
    return pass_through_suite()


@pytest.fixture(scope="module")
def batch_corpus():
    return build_movie_corpus(size=8, seed=7)


def many(suite, kind, method, items):
    """One vectorized single-argument call per item."""
    return suite.call_many(kind, method, [((item,), {}) for item in items])


def only_call(meter):
    assert len(meter) == 1, "a batch must charge exactly one ledger record"
    call = meter.calls[0]
    assert isinstance(call, BatchedModelCall)
    return call


class TestBatchSerialEquivalence:
    """`call_many` must never drift from the exact serial path."""

    def test_embeddings_bit_identical(self, suite, batch_corpus):
        texts = [m.plot for m in batch_corpus.movies]
        serial = [suite.embeddings.embed_text(t) for t in texts]
        batched = many(suite, "embeddings", "embed_text", texts)
        assert len(serial) == len(batched)
        for a, b in zip(serial, batched):
            assert np.array_equal(a, b)          # bit-identical vectors

    def test_ner_same_entities(self, suite, batch_corpus):
        texts = [m.plot for m in batch_corpus.movies]
        serial = [suite.ner.extract(t) for t in texts]
        batched = many(suite, "ner", "extract", texts)
        for a, b in zip(serial, batched):
            assert repr(a.entities) == repr(b.entities)
            assert repr(a.mentions) == repr(b.mentions)
            assert repr(a.relationships) == repr(b.relationships)
            assert repr(a.attributes) == repr(b.attributes)

    def test_detector_same_boxes(self, suite, batch_corpus):
        images = [m.poster for m in batch_corpus.movies]
        serial = [suite.detector.detect(i) for i in images]
        assert many(suite, "detector", "detect", images) == serial

    def test_ocr_same_text(self, suite, batch_corpus):
        images = [m.poster for m in batch_corpus.movies]
        serial = [suite.ocr.extract_text(i) for i in images]
        assert many(suite, "ocr", "extract_text", images) == serial

    def test_empty_batch_is_a_free_noop(self, suite):
        assert many(suite, "ner", "extract", []) == []
        assert len(suite.cost_meter) == 0


class TestSublinearCost:
    def test_batch_charges_one_call_below_serial_price(self, suite, batch_corpus):
        images = [m.poster for m in batch_corpus.movies]
        serial_meter = CostMeter()
        suite.detector.wrapped.cost_meter = serial_meter
        for image in images:
            suite.detector.detect(image)
        serial_tokens = serial_meter.total_tokens

        batch_meter = CostMeter()
        suite.detector.wrapped.cost_meter = batch_meter
        many(suite, "detector", "detect", images)
        call = only_call(batch_meter)
        assert call.batch_size == len(images)
        assert call.serial_tokens == serial_tokens
        assert call.total_tokens < serial_tokens
        # Sub-linear shape: one shared setup + per-item marginal cost.  The
        # detector charges 60/call with 32 shareable setup tokens, so the
        # batch must save (n-1) * 32.
        assert call.tokens_saved == (len(images) - 1) * 32
        assert batch_meter.batch_tokens_saved == call.tokens_saved

    def test_duplicate_members_share_one_computation(self, suite, batch_corpus):
        text = batch_corpus.movies[0].plot
        reference = suite.ner.extract(text)
        suite.cost_meter.reset()
        results = many(suite, "ner", "extract", [text] * 4)
        assert all(repr(r.entities) == repr(reference.entities) for r in results)
        call = only_call(suite.cost_meter)
        # One execution's content + one setup, but four members' serial price.
        assert call.serial_tokens > 3 * call.total_tokens
        # Members get private copies, not views of one object.
        assert results[0] is not results[1]

    def test_batch_latency_is_one_invocation(self, suite, batch_corpus):
        images = [m.poster for m in batch_corpus.movies]
        serial_meter = CostMeter()
        suite.ocr.wrapped.cost_meter = serial_meter
        for image in images:
            suite.ocr.extract_text(image)
        batch_meter = CostMeter()
        suite.ocr.wrapped.cost_meter = batch_meter
        many(suite, "ocr", "extract_text", images)
        assert batch_meter.total_latency_s < serial_meter.total_latency_s

    def test_member_failure_propagates_from_direct_batch(self, suite):
        with pytest.raises(AttributeError):
            many(suite, "ner", "extract", [123])  # not a string: fails like serial
        assert len(suite.cost_meter) == 0   # nothing executed, nothing billed

    def test_partial_failure_still_bills_the_executed_members(self, suite,
                                                              batch_corpus):
        # Every member executes and every successful one is billed, then the
        # first error is raised.  The good member comes *after* the faulty
        # one, so a serial loop would have billed nothing.
        text = batch_corpus.movies[0].plot
        with pytest.raises(AttributeError):
            many(suite, "ner", "extract", [123, text])
        call = only_call(suite.cost_meter)
        assert call.batch_size == 1 and call.total_tokens > 0

    def test_batch_size_splits_the_vector(self, suite, batch_corpus):
        images = [m.poster for m in batch_corpus.movies][:5]
        results = suite.call_many("detector", "detect",
                                  [((image,), {}) for image in images], batch_size=2)
        chunks = list(suite.cost_meter.calls)
        assert results == [suite.detector.detect(image) for image in images]
        # Chunks of two run as batched invocations; the one-member tail runs
        # as the serial call it equals, billed as a plain record.
        assert [type(c) for c in chunks] == [BatchedModelCall, BatchedModelCall,
                                             ModelCall]
        assert [c.batch_size for c in chunks[:2]] == [2, 2]
        assert chunks[2].total_tokens == suite.cost_meter.calls[-1].total_tokens

    def test_failing_vector_bills_the_same_on_both_routes(self, batch_corpus):
        # A pass-through gateway and a service-style gateway with every tier
        # on (and nothing cached yet) bill a failing vector identically.
        texts = [batch_corpus.movies[0].plot, 123, batch_corpus.movies[1].plot]
        pass_through = pass_through_suite()
        routed = ModelSuite.create(seed=42, cost_meter=CostMeter()).routed(
            ModelGateway(GatewayConfig()), "s")
        for suite in (pass_through, routed):
            with pytest.raises(AttributeError):
                many(suite, "ner", "extract", texts)
        assert routed.cost_meter.total_tokens == \
            pass_through.cost_meter.total_tokens > 0
        assert routed.gateway_client.counters.tokens_charged == \
            pass_through.gateway_client.counters.tokens_charged == \
            pass_through.cost_meter.total_tokens


class TestPlanBatch:
    class Stub:
        name = "stub:plan"
        BATCH_OVERHEAD_TOKENS = 10

        def __init__(self, meter):
            self.cost_meter = meter

        def work(self, item, purpose="work"):
            self.cost_meter.record(self.name, purpose, prompt_tokens=25,
                                   completion_tokens=5)
            return {"item": item}

        def boom(self, item):
            raise ValueError(f"bad {item}")

    def test_shares_sum_exactly_to_the_batch_price(self):
        model = self.Stub(CostMeter())
        members = [BatchMember(model=model, method="work", args=(i,), key=i)
                   for i in range(5)]
        plan = plan_batch(members)
        assert plan.size == 5
        # 5 distinct x (25 + 5) serial = 150; batched = 10 + 5 x (15 + 5).
        assert plan.serial_tokens == 150
        assert plan.total_tokens == 10 + 5 * 20
        charged = sum(o.charged_tokens for o in plan.outcomes)
        assert charged == plan.total_tokens
        assert sum(o.tokens_saved for o in plan.outcomes) == plan.tokens_saved
        # Pricing must not have charged the stub's own meter.
        assert len(model.cost_meter) == 0

    def test_failed_member_leaves_the_rest_alive(self):
        meter = CostMeter()
        ok_model = self.Stub(meter)
        members = [BatchMember(model=ok_model, method="work", args=(1,), key=1),
                   BatchMember(model=ok_model, method="boom", args=(2,), key=2),
                   BatchMember(model=ok_model, method="work", args=(3,), key=3)]
        plan = plan_batch(members)
        assert plan.size == 2
        assert plan.outcomes[0].result == {"item": 1}
        assert isinstance(plan.outcomes[1].error, ValueError)
        assert plan.outcomes[2].result == {"item": 3}

    def test_duplicates_of_a_failed_member_fail_identically(self):
        model = self.Stub(CostMeter())
        members = [BatchMember(model=model, method="boom", args=(1,), key="k"),
                   BatchMember(model=model, method="boom", args=(1,), key="k")]
        plan = plan_batch(members)
        assert plan.size == 0
        assert plan.outcomes[0].error is plan.outcomes[1].error


class TestCostMeterThreadSafety:
    def test_concurrent_record_and_summaries(self):
        # The batch leader's thread records member shares on follower
        # sessions' meters while the owning thread summarizes; hammer one
        # meter from a pool while the main thread reads it.
        meter = CostMeter()
        workers, per_worker = 8, 200
        start = threading.Barrier(workers + 1)

        def hammer(index):
            start.wait()
            for i in range(per_worker):
                if i % 3:
                    meter.record(f"m{index}", "hammer", 3, 2)
                else:
                    meter.record_batched(f"m{index}", "hammer", 3, 2,
                                         batch_size=4, serial_tokens=9)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(hammer, i) for i in range(workers)]
            start.wait()
            for _ in range(300):
                marker = meter.snapshot()
                assert meter.tokens_since(marker) >= 0
                # Writers keep appending between reads: the summary must be
                # one consistent snapshot taken between the two lengths.
                before = len(meter)
                calls = meter.summary().calls
                assert before <= calls <= len(meter)
                assert meter.total_tokens >= 0
            for future in futures:
                future.result()

        assert len(meter) == workers * per_worker
        assert meter.total_tokens == workers * per_worker * 5

    def test_capture_is_thread_local(self):
        meter = CostMeter()
        inside = threading.Event()
        proceed = threading.Event()

        def other_thread():
            inside.wait(5)
            meter.record("other", "ledger", 7, 0)   # not captured
            proceed.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with CostMeter.capture() as records:
            inside.set()
            assert proceed.wait(5)
            meter.record("mine", "captured", 3, 0)
        thread.join()
        assert [c.model for c in records] == ["mine"]
        assert [c.model for c in meter.calls] == ["other"]
        assert meter.total_tokens == 7
