"""Continuous-batching scheduler: equivalence, deadlines, isolation, pricing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import AASDDraftHead
from repro.errors import AdmissionError
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer
from repro.robustness import FaultyDraftHead
from repro.serving import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    ContinuousBatchingScheduler,
    ServeRequest,
    ServingConfig,
    serve_requests,
)


class TestEmptyAndIdle:
    def test_empty_request_list(self, make_engine):
        report = serve_requests(make_engine(), [])
        assert report.results == ()
        assert report.n_rounds == 0
        assert report.total_sim_ms == 0.0
        assert report.total_tokens == 0

    def test_run_round_on_empty_queue_is_noop(self, make_engine):
        scheduler = ContinuousBatchingScheduler(make_engine())
        assert scheduler.idle
        assert scheduler.run_round() is False
        assert scheduler.n_rounds == 0


class TestBatchedSequentialEquivalence:
    def test_tokens_and_records_identical_under_greedy(
        self, make_engine, world, sequential_records
    ):
        baseline = make_engine(head=world["dt_llama"])
        for head, sequential in (
            (world["head"], sequential_records),
            (world["dt_llama"], [baseline.decode(s) for s in world["samples"]]),
        ):
            report = serve_requests(
                make_engine(head=head), world["samples"], ServingConfig(max_batch_size=4)
            )
            assert report.count(STATUS_COMPLETED) == len(world["samples"])
            for result, solo in zip(report.results, sequential):
                assert result.record.token_ids == solo.token_ids
                assert result.record.text == solo.text
                # per-request attribution stays solo-priced: same sim charge,
                # same block structure as a sequential decode of that sample
                assert result.record.sim_time_ms == pytest.approx(solo.sim_time_ms)
                assert len(result.record.blocks) == len(solo.blocks)

    def test_batch_of_one_costs_exactly_sequential(
        self, make_engine, world, sequential_records
    ):
        samples = world["samples"][:3]
        report = serve_requests(
            make_engine(), samples, ServingConfig(max_batch_size=1)
        )
        sequential_ms = sum(r.sim_time_ms for r in sequential_records[:3])
        assert report.total_sim_ms == pytest.approx(sequential_ms)
        assert report.max_batch_occupancy == 1
        # with one request in the system the server clock is charged what
        # the request's record is, addition for addition, whoever drafts
        # (the self-encoding head pays for its prefill and every absorb)
        self_encoding = AASDDraftHead(
            dataclasses.replace(world["head"].config, use_target_kv=False),
            rng=np.random.default_rng(1),
        )
        for head in (world["head"], world["dt_llama"], self_encoding):
            report = serve_requests(make_engine(head=head), samples[:1])
            record = report.results[0].record
            assert report.sim_by_category == record.sim_by_category
            assert report.total_sim_ms == record.sim_time_ms

    def test_batching_beats_sequential_on_server_clock(
        self, make_engine, world, sequential_records
    ):
        report = serve_requests(
            make_engine(), world["samples"], ServingConfig(max_batch_size=8)
        )
        sequential_ms = sum(r.sim_time_ms for r in sequential_records)
        assert report.total_sim_ms < 0.6 * sequential_ms
        assert report.max_batch_occupancy == 8


class TestDeadlines:
    def test_deadline_expiry_mid_batch_keeps_partial_output(self, make_engine, world):
        samples = world["samples"][:3]
        requests = [
            ServeRequest(request_id=f"r{i}", sample=s) for i, s in enumerate(samples)
        ]
        # tight budget: enough for prefill + a round or two, not the full decode
        requests[1] = dataclasses.replace(requests[1], deadline_ms=150.0)
        report = serve_requests(make_engine(), requests)
        by_id = {r.request_id: r for r in report.results}
        timed_out = by_id["r1"]
        assert timed_out.status == STATUS_TIMEOUT
        assert timed_out.record is not None
        assert 0 < timed_out.record.n_tokens < report.results[0].record.n_tokens
        # the rest of the batch was not disturbed
        assert by_id["r0"].status == STATUS_COMPLETED
        assert by_id["r2"].status == STATUS_COMPLETED

    def test_deadline_expiry_while_queued_never_starts(self, make_engine, world):
        samples = world["samples"][:3]
        requests = [ServeRequest(request_id="head", sample=samples[0])]
        requests.append(
            ServeRequest(request_id="starved", sample=samples[1], deadline_ms=50.0)
        )
        report = serve_requests(
            make_engine(), requests, ServingConfig(max_batch_size=1)
        )
        by_id = {r.request_id: r for r in report.results}
        starved = by_id["starved"]
        assert starved.status == STATUS_TIMEOUT
        assert starved.record is None          # expired before admission
        assert starved.started_ms is None
        assert by_id["head"].status == STATUS_COMPLETED


class TestFaultIsolation:
    def test_failing_request_does_not_stall_batch(
        self, make_engine, world, sequential_records
    ):
        # fail_steps=[0]: the very first draft-head call in the batch —
        # deterministically row 0 of the first lockstep step, the first
        # admitted request — raises hard.  With fallback disabled the
        # exception is that session's entry in step_batch's outcomes.
        faulty = FaultyDraftHead(world["head"], mode="raise", fail_steps=[0])
        engine = make_engine(head=faulty, fallback_on_fault=False)
        samples = world["samples"][:4]
        report = serve_requests(engine, samples, ServingConfig(max_batch_size=4))
        statuses = [r.status for r in report.results]
        assert statuses == [STATUS_FAILED, STATUS_COMPLETED, STATUS_COMPLETED,
                            STATUS_COMPLETED]
        assert "step failed" in report.results[0].error
        # healthy requests still decode token-identically to sequential
        for result, solo in zip(report.results[1:], sequential_records[1:4]):
            assert result.record.token_ids == solo.token_ids

    def test_faulting_request_degrades_alone(self, make_engine, world, sequential_records):
        # default fallback: same fault, but the engine degrades the session
        # in place — it completes, merely marked degraded, others untouched.
        faulty = FaultyDraftHead(world["head"], mode="nan-logits", fail_steps=[0])
        engine = make_engine(head=faulty)
        samples = world["samples"][:4]
        report = serve_requests(engine, samples, ServingConfig(max_batch_size=4))
        assert report.count(STATUS_COMPLETED) == 4
        assert report.results[0].record.degraded
        assert report.results[0].record.n_draft_faults == 1
        for result in report.results[1:]:
            assert not result.record.degraded
        # losslessness holds even for the degraded request
        for result, solo in zip(report.results, sequential_records[:4]):
            assert result.record.token_ids == solo.token_ids

    def test_plain_head_hard_fault_fails_one_request(self, make_engine, world,
                                                     sequential_records):
        # the plain head's lockstep step hands one request NaN logits:
        # the engine's own row guard makes it that request's outcome
        class NanForOne:
            def __init__(self, head):
                self._head = head

            def __getattr__(self, name):
                return getattr(self._head, name)

            def step_packed(self, token_ids, positions, hybrids, request_ids=None, **kw):
                rows = self._head.step_packed(
                    token_ids, positions, hybrids, request_ids=request_ids, **kw)
                if "req-002" in request_ids:
                    rows[list(request_ids).index("req-002")][:] = np.nan
                return rows

        engine = make_engine(head=NanForOne(world["head"]), fallback_on_fault=False)
        report = serve_requests(engine, world["samples"][:4],
                                ServingConfig(max_batch_size=4))
        assert [r.status for r in report.results] == [
            STATUS_COMPLETED, STATUS_COMPLETED, STATUS_FAILED, STATUS_COMPLETED]
        for i in (0, 1, 3):
            assert report.results[i].record.token_ids == sequential_records[i].token_ids

    @pytest.mark.parametrize("mode", ["nan-logits", "raise"])
    def test_request_storm_is_width_independent(self, make_engine, world,
                                                sequential_records, mode):
        # a per-request schedule faults the same requests at the same
        # request-local steps whether they draft alone or in lockstep
        def run(width):
            head = FaultyDraftHead(world["head"], mode=mode, seed=3,
                                   request_fault_rate=0.5, fault_horizon=6)
            report = serve_requests(make_engine(head=head), world["samples"],
                                    ServingConfig(max_batch_size=width))
            assert report.count(STATUS_COMPLETED) == len(world["samples"])
            return head.faults_by_request, [r.record.token_ids for r in report.results]

        faults_solo, tokens_solo = run(1)
        faults_wide, tokens_wide = run(4)
        assert faults_solo == faults_wide and sum(faults_solo.values()) > 0
        assert tokens_solo == tokens_wide == [r.token_ids for r in sequential_records]

    def test_tree_rounds_are_width_independent(self, make_engine, world,
                                               sequential_records):
        for width in (1, 4):
            engine = make_engine(tree_speculation=True)
            assert engine.tree_ready
            report = serve_requests(engine, world["samples"],
                                    ServingConfig(max_batch_size=width))
            assert [r.record.token_ids for r in report.results] == [
                r.token_ids for r in sequential_records]

    def test_prefill_failure_is_isolated(self, make_engine, world):
        # a malformed image makes the target's prefill raise for this
        # request only
        bad = dataclasses.replace(
            world["samples"][0], image=np.zeros((8, 8, 3), dtype=np.float32)
        )
        requests = [
            ServeRequest(request_id="bad", sample=bad),
            ServeRequest(request_id="good", sample=world["samples"][1]),
        ]
        report = serve_requests(make_engine(), requests)
        by_id = {r.request_id: r for r in report.results}
        assert by_id["bad"].status == STATUS_FAILED
        assert "prefill failed" in by_id["bad"].error
        assert by_id["good"].status == STATUS_COMPLETED


class TestCompatibilityAndBackpressure:
    def test_batches_never_mix_gammas(self, make_engine, world):
        scheduler = ContinuousBatchingScheduler(
            make_engine(), ServingConfig(max_batch_size=4)
        )
        for i, gamma in enumerate([2, 5, 2, 5]):
            scheduler.submit(
                ServeRequest(request_id=f"r{i}", sample=world["samples"][i], gamma=gamma)
            )
        scheduler.run_round()
        gammas = {e.session.gamma_controller.gamma for e in scheduler._active}
        assert gammas == {2}
        scheduler.run_until_idle(max_rounds=200)
        assert scheduler.idle

    def test_submit_raises_when_queue_full(self, make_engine, world):
        scheduler = ContinuousBatchingScheduler(
            make_engine(), ServingConfig(max_batch_size=1, max_queue_depth=2)
        )
        scheduler.submit(ServeRequest(request_id="r0", sample=world["samples"][0]))
        scheduler.submit(ServeRequest(request_id="r1", sample=world["samples"][1]))
        with pytest.raises(AdmissionError):
            scheduler.submit(ServeRequest(request_id="r2", sample=world["samples"][2]))

    def test_facade_drains_past_backpressure(self, make_engine, world):
        # more requests than the queue holds: the facade interleaves rounds
        # with submissions instead of rejecting
        report = serve_requests(
            make_engine(), world["samples"],
            ServingConfig(max_batch_size=2, max_queue_depth=2),
        )
        assert report.count(STATUS_COMPLETED) == len(world["samples"])


class TestObservability:
    def test_counters_gauges_and_schedule_spans(self, make_engine, world):
        registry = get_registry()
        tracer = Tracer(enabled=True, registry=registry)
        completed_before = registry.counter("serving.requests_completed_total").value
        rounds_before = registry.counter("serving.rounds_total").value

        report = serve_requests(
            make_engine(tracer=tracer), world["samples"][:4],
            ServingConfig(max_batch_size=4),
        )
        assert report.count(STATUS_COMPLETED) == 4

        completed = registry.counter("serving.requests_completed_total").value
        assert completed - completed_before == 4
        rounds = registry.counter("serving.rounds_total").value
        assert rounds - rounds_before == report.n_rounds
        assert registry.gauge("serving.queue_depth").value == 0
        assert registry.gauge("serving.batch_occupancy").value >= 1

        names = {s.name for s in tracer.spans}
        assert {"schedule", "request", "prefill"} <= names
        schedule_spans = [s for s in tracer.spans if s.name == "schedule"]
        assert len(schedule_spans) == report.n_rounds
        # every round's batched charge is attributed to its schedule span
        assert sum(s.sim_ms for s in schedule_spans) == pytest.approx(
            report.total_sim_ms
        )
        # request spans carry the request id for per-request drill-down
        request_spans = [s for s in tracer.spans if s.name == "request"]
        assert all("request_id" in s.attrs for s in request_spans)
        hist = registry.get("span_ms.schedule")
        assert hist is not None and hist.count >= report.n_rounds

    def test_report_summary_is_flat_and_complete(self, make_engine, world):
        report = serve_requests(make_engine(), world["samples"][:2])
        summary = report.summary()
        assert summary["n_requests"] == 2
        assert summary["completed"] == 2
        assert summary["total_tokens"] == report.total_tokens
        assert summary["tokens_per_s"] == pytest.approx(report.tokens_per_s)

    def test_report_acceptance_fields(self, make_engine, world):
        report = serve_requests(make_engine(), world["samples"][:3])
        records = [r.record for r in report.results if r.record is not None]
        forwards = sum(r.n_target_forwards for r in records)
        assert report.accepted_per_target_forward == pytest.approx(
            sum(r.n_tokens for r in records) / forwards
        )
        assert report.block_efficiency_p95 >= report.block_efficiency_p50 >= 1.0
        summary = report.summary()
        for key in ("accepted_per_target_forward", "block_efficiency_p50",
                    "block_efficiency_p95"):
            assert summary[key] == getattr(report, key)


class TestTreeServing:
    """Tree-speculation rounds under the continuous-batching scheduler."""

    def _tree_engine(self, make_engine, **overrides):
        return make_engine(
            tree_speculation=True, tree_max_branch=2, tree_max_nodes=6,
            gamma=overrides.pop("gamma", 4), **overrides,
        )

    def test_tree_rounds_lossless(self, make_engine, world, sequential_records):
        # greedy tree speculation is lossless, so served tokens must match
        # the sequential linear-engine oracle exactly
        report = serve_requests(
            self._tree_engine(make_engine), world["samples"][:4],
            ServingConfig(max_batch_size=4),
        )
        assert report.count(STATUS_COMPLETED) == 4
        for result, solo in zip(report.results, sequential_records):
            assert result.record.token_ids == solo.token_ids
        assert report.accepted_per_target_forward >= 1.0

    def test_rejected_branches_billed_exactly_once(self, make_engine, world,
                                                   monkeypatch):
        """Double-billing regression: the round's verify charge is exactly
        the batched verify price of the fed node counts — rejected
        branches are billed once by the forward that fed them and never
        again at rollback."""
        engine = self._tree_engine(make_engine)
        cm = engine.cost_model
        calls = []
        orig = cm.batched_verify
        monkeypatch.setattr(
            cm, "batched_verify",
            lambda feeds: calls.append(tuple(feeds)) or orig(feeds),
        )
        scheduler = ContinuousBatchingScheduler(
            engine, ServingConfig(max_batch_size=4)
        )
        report = serve_requests(engine, world["samples"][:4], scheduler=scheduler)
        assert report.count(STATUS_COMPLETED) == 4
        assert calls, "tree rounds must price through batched_verify"
        # feeds are node counts (anchor + drafted nodes), never gamma * B,
        # and never depend on how many nodes were later accepted
        for feeds in calls:
            assert all(2 <= f <= 1 + engine.config.tree_max_nodes for f in feeds)
        expected = sum(orig(list(feeds)) for feeds in calls)
        assert scheduler.clock.by_category["verify"] == pytest.approx(expected)
