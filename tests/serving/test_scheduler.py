"""Continuous-batching scheduler: equivalence, deadlines, isolation, pricing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import AASDDraftHead
from repro.errors import AdmissionError
from repro.obs.tracing import Tracer
from repro.decoding import SamplerConfig
from repro.robustness import FaultyDraftHead
from repro.serving import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    ContinuousBatchingScheduler,
    ServeHandle,
    ServeRequest,
    ServingConfig,
    serve_requests,
)
from repro.utils.timing import SimulatedClock


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
    @pytest.mark.parametrize("sampler_config", [
        pytest.param(None, id="greedy"),
        pytest.param(SamplerConfig(greedy=False, seed=3), id="sampled"),
    ])
    def test_one_batch_mixes_depths(self, make_engine, world, sampler_config):
        gammas = [2, 5, 2, 5]
        scheduler = ContinuousBatchingScheduler(
            make_engine(sampler_config=sampler_config), ServingConfig(max_batch_size=4)
        )
        handles = [
            scheduler.submit(
                ServeRequest(request_id=f"r{i}", sample=world["samples"][i], gamma=gamma)
            )
            for i, gamma in enumerate(gammas)
        ]
        scheduler.run_round()
        assert scheduler.n_active == 4   # no request waits for a same-depth batch
        assert [e.session.gamma for e in scheduler._active] == gammas
        scheduler.run_until_idle(max_rounds=200)
        assert scheduler.idle
        for i, (handle, gamma) in enumerate(zip(handles, gammas)):
            # the request decoded alone by an engine configured at its depth
            # (under the same request id, so a sampled stream draws alike)
            engine = make_engine(sampler_config=sampler_config, gamma=gamma)
            session = engine.begin(world["samples"][i], request_id=f"r{i}")
            while not session.finished:
                engine.step(session)
            assert handle.result().status == STATUS_COMPLETED
            assert handle.result().record.token_ids == session.committed

    def test_submit_raises_when_queue_full(self, make_engine, world):
        scheduler = ContinuousBatchingScheduler(
            make_engine(), ServingConfig(max_batch_size=1, max_queue_depth=2)
        )
        scheduler.submit(ServeRequest(request_id="r0", sample=world["samples"][0]))
        scheduler.submit(ServeRequest(request_id="r1", sample=world["samples"][1]))
        with pytest.raises(AdmissionError):
            scheduler.submit(ServeRequest(request_id="r2", sample=world["samples"][2]))

    def test_submit_refuses_id_still_in_system(self, make_engine, world):
        # "busy" faults transiently on its first draft step and waits out
        # a retry backoff; "live" is mid-decode in the batch.
        head = FaultyDraftHead(world["head"], mode="raise", transient=True,
                               per_request=True, fail_steps=[0])
        scheduler = ContinuousBatchingScheduler(
            make_engine(head=head, fallback_on_fault=False),
            ServingConfig(max_batch_size=2, retry=True),
        )
        sample = world["samples"][0]
        scheduler.submit(ServeRequest(request_id="busy", sample=sample))
        scheduler.run_round()
        assert scheduler.n_retries == 1 and scheduler.n_active == 0
        with pytest.raises(AdmissionError):
            scheduler.submit(ServeRequest(request_id="busy", sample=sample))

        head.fail_steps = frozenset()
        scheduler.submit(ServeRequest(request_id="live", sample=sample))
        scheduler.run_round()
        assert "live" in [e.handle.request_id for e in scheduler._active]
        with pytest.raises(AdmissionError):
            scheduler.submit(ServeRequest(request_id="live", sample=sample))

        scheduler.run_until_idle(max_rounds=200)
        # a finished request's id may come back
        again = scheduler.submit(ServeRequest(request_id="live", sample=sample))
        scheduler.run_until_idle(max_rounds=200)
        assert again.result().status == STATUS_COMPLETED

    def test_submits_between_rounds_resolve_once(self, make_engine, world, monkeypatch):
        # Submits interleave with rounds on the one driving thread: every
        # attempt is admitted or refused, and every admitted handle
        # resolves exactly once.
        resolved = []
        resolve = ServeHandle.resolve

        def counting_resolve(handle, result):
            resolved.append(handle.request_id)
            resolve(handle, result)

        monkeypatch.setattr(ServeHandle, "resolve", counting_resolve)
        scheduler = ContinuousBatchingScheduler(
            make_engine(max_new_tokens=4),
            ServingConfig(max_batch_size=2, max_queue_depth=3),
        )
        accepted, refused = [], []
        for burst in range(4):
            for i in range(4):
                request = ServeRequest(request_id=f"b{burst}-{i}", sample=world["samples"][i])
                try:
                    accepted.append(scheduler.submit(request))
                except AdmissionError:
                    refused.append(request.request_id)
            scheduler.run_round()
        scheduler.run_until_idle(max_rounds=200)

        assert scheduler.idle and scheduler.n_active == 0
        assert refused and len(accepted) + len(refused) == 16
        assert sorted(resolved) == sorted(h.request_id for h in accepted)
        for handle in accepted:
            result = handle.result(timeout=0)
            assert result.status == STATUS_COMPLETED and result.record is not None

    def test_facade_drains_past_backpressure(self, make_engine, world):
        # more requests than the queue holds: the facade interleaves rounds
        # with submissions instead of rejecting
        report = serve_requests(
            make_engine(), world["samples"],
            ServingConfig(max_batch_size=2, max_queue_depth=2),
        )
        assert report.count(STATUS_COMPLETED) == len(world["samples"])


class TestObservability:
    def test_report_counts_and_schedule_spans(self, make_engine, world):
        tracer = Tracer(enabled=True)
        engine = make_engine(tracer=tracer)
        scheduler = ContinuousBatchingScheduler(engine, ServingConfig(max_batch_size=4))
        report = serve_requests(engine, world["samples"][:4], scheduler=scheduler)
        assert report.count(STATUS_COMPLETED) == 4
        assert scheduler.queue.depth == 0

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
        # the schedule spans' batch sizes peak at the report's occupancy
        assert max(s.attrs["batch_size"] for s in schedule_spans
                   if "batch_size" in s.attrs) == report.max_batch_occupancy

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
        """Double-billing regression: the server's verify charge is exactly
        the ``verify`` price of each forward's fed node counts — rejected
        branches are billed once by the forward that fed them and never
        again at rollback."""
        engine = self._tree_engine(make_engine)
        cm = engine.cost_model
        calls = []
        orig = engine.target.decode_batch
        monkeypatch.setattr(
            engine.target, "decode_batch",
            lambda rows, *a, **kw: calls.append([len(r) for r in rows])
            or orig(rows, *a, **kw),
        )
        scheduler = ContinuousBatchingScheduler(
            engine, ServingConfig(max_batch_size=4)
        )
        report = serve_requests(engine, world["samples"][:4], scheduler=scheduler)
        assert report.count(STATUS_COMPLETED) == 4
        assert any(len(feeds) > 1 for feeds in calls), "rounds must verify packed"
        # feeds are node counts (anchor + drafted nodes), never gamma * B,
        # and never depend on how many nodes were later accepted
        for feeds in calls:
            assert all(2 <= f <= 1 + engine.config.tree_max_nodes for f in feeds)
        # one charge per forward (the KV-reusing head's absorbs are free)
        assert scheduler.clock.by_category["verify"] == sum(
            cm.price("verify", feeds) for feeds in calls)
        # and each request's record its one-row share of each
        assert sum(r.record.sim_by_category["verify"] for r in report.results) == (
            pytest.approx(sum(cm.price("verify", (f,)) for feeds in calls for f in feeds)))



class _ChargeLog(SimulatedClock):
    """A server clock logging each charge into the call log beside it."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def charge(self, seconds, category="other"):
        self.log.append(("charge", category, seconds))
        super().charge(seconds, category)


#: server-clock category each spied model call is charged under
_CALL_CATEGORY = {"prefill_batch": "prefill", "step_packed": "draft",
                  "decode_batch": "verify", "decode": "fallback"}


class TestOneChargePerModelCall:
    """The engine charges the server clock once per model call, at the
    law's price over that call's rows: the prefill right after its call
    (the drafter's opens ride that charge), every other call just before
    it runs — and nothing else lands on the clock but the absorb charge
    right after a verify or fallback forward."""

    def _serve(self, engine, head, samples, monkeypatch, **serving):
        log = []

        def spy(owner, name):
            orig = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: (
                log.append(("call", name, args)) or orig(*args, **kwargs)))

        for name in ("prefill_batch", "decode_batch", "decode"):
            spy(engine.target, name)
        spy(head, "step_packed")
        scheduler = ContinuousBatchingScheduler(engine, ServingConfig(**serving))
        scheduler.clock = _ChargeLog(log)
        report = serve_requests(engine, samples, scheduler=scheduler)
        assert report.count(STATUS_COMPLETED) == len(samples)
        return self._check(log, engine), scheduler

    @staticmethod
    def _check(log, engine):
        """Pair every call with its charge; returns the calls per name."""
        cm, n_vis = engine.cost_model, engine.target.n_vision_tokens
        charges = {k for k, event in enumerate(log) if event[0] == "charge"}
        calls = [(k, name, args) for k, (kind, name, args) in enumerate(log)
                 if kind == "call"]
        claimed = set()
        for k, name, args in calls:
            j, expected = k - 1, None
            if name == "prefill_batch":
                j = k + 1
                expected = cm.price("prefill", [n_vis + len(row) for row in args[1]])
                expected += cm.price(engine.head.prefill_phase, [1] * len(args[1]))
            elif name == "decode_batch":
                expected = cm.price("verify", [len(row) for row in args[0]])
            elif name == "decode":
                expected = cm.price("step", (1,))
            assert j in charges - claimed and log[j][1] == _CALL_CATEGORY[name], (k, name)
            assert expected is None or log[j][2] == expected, (k, name)
            claimed.add(j)
        for k, name, _ in calls:   # the absorb charged right after a forward
            if name in ("decode_batch", "decode") and k + 1 in charges - claimed:
                assert log[k + 1][1] == _CALL_CATEGORY[name]
                claimed.add(k + 1)
        assert claimed == charges
        return {name: sum(n == name for _, n, _ in calls) for name in _CALL_CATEGORY}

    def test_greedy_chain(self, make_engine, world, monkeypatch):
        engine = make_engine()
        counts, _ = self._serve(engine, world["head"], world["samples"][:6], monkeypatch,
                                max_batch_size=4)
        assert counts["decode_batch"] > 0 and counts["decode"] == 0

    def test_sampled(self, make_engine, world, monkeypatch):
        engine = make_engine(sampler_config=SamplerConfig(greedy=False, seed=3))
        counts, _ = self._serve(engine, world["head"], world["samples"][:6], monkeypatch,
                                max_batch_size=4)
        assert counts["step_packed"] > 0 and counts["decode"] == 0

    def test_tree(self, make_engine, world, monkeypatch):
        engine = make_engine(tree_speculation=True, tree_max_branch=2, tree_max_nodes=6,
                             gamma=4)
        counts, _ = self._serve(engine, world["head"], world["samples"][:6], monkeypatch,
                                max_batch_size=4)
        assert counts["decode_batch"] > 0

    def test_breaker_forced_fallback_storm(self, make_engine, world, monkeypatch):
        """Every draft step raises a latency fault; the breaker flips whole
        batches target-only, so rounds mix fallback steps, faulted blocks
        and half-open probes."""
        head = FaultyDraftHead(world["head"], mode="latency", fail_every=1)
        engine = make_engine(head=head, max_draft_faults=10_000)
        counts, scheduler = self._serve(
            engine, head, world["samples"][:4], monkeypatch, max_batch_size=4,
            breaker=True,
        )
        assert ("closed", "open") in [t[1:] for t in scheduler.breaker.transitions]
        assert counts["decode"] > counts["decode_batch"] == 0
        assert counts["step_packed"] > 0
