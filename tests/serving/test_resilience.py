"""Serving-tier resilience: retry, circuit breaker, shedding, deadlines.

Unit tests pin the policy state machines in isolation; the integration
tests drive the continuous-batching scheduler over the tiny world from
``conftest`` and check the headline guarantees — retried outputs are
token-identical to a clean run, a forced-fallback batch stays lossless,
and every policy action reconciles with the metrics registry.
"""

from __future__ import annotations

import logging

import pytest

from repro.decoding import LlavaDraft
from repro.decoding.sampling import SamplerConfig
from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.robustness import FaultyDraftHead
from repro.serving import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    AdmissionQueue,
    CircuitBreaker,
    ContinuousBatchingScheduler,
    ServeRequest,
    ServingConfig,
    serve_requests,
)
from repro.serving import resilience
from repro.serving.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    retry_backoff_ms,
)

MAX_NEW_TOKENS = 20   # matches the conftest world


@pytest.fixture()
def registry():
    """Fresh process registry for exact counter assertions."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture()
def propagating_logs():
    """Let ``repro`` records reach caplog's root handler.

    ``configure_logging`` (run by earlier CLI tests in the full suite)
    sets ``propagate = False`` on the tree root, which would hide the
    structured records from caplog.
    """
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous


# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic_and_jittered(self):
        a = retry_backoff_ms(3, "r1", 0)
        assert a == retry_backoff_ms(3, "r1", 0)
        assert 20.0 <= a < 25.0
        # distinct requests and seeds de-synchronize
        assert a != retry_backoff_ms(3, "r2", 0)
        assert a != retry_backoff_ms(4, "r1", 0)

    def test_backoff_grows_exponentially_and_caps(self):
        # base 20 ms doubling per attempt, capped at 500 ms, plus < 5 ms jitter
        for attempt, floor in [(0, 20.0), (1, 40.0), (2, 80.0), (4, 320.0),
                               (5, 500.0), (9, 500.0)]:
            assert floor <= retry_backoff_ms(0, "r", attempt) < floor + 5.0


class TestBreakerConfig:
    def test_hysteresis_ordering_enforced(self):
        # the re-close bar sits strictly above the open bar, so a marginal
        # drafter cannot flap the breaker
        assert (resilience.BREAKER_RECLOSE_ABOVE_ACCEPTANCE
                > resilience.BREAKER_OPEN_BELOW_ACCEPTANCE)


# (drafted, accepted, faults) rounds that fill the breaker's 4-round
# window, each at its 1.0 faults/round open bar.
OPENING_ROUNDS = [(4, 0, 1)] * 4


class TestCircuitBreaker:
    def _open_breaker(self):
        breaker = CircuitBreaker()
        for row in OPENING_ROUNDS:
            breaker.observe_round(*row)
        assert breaker.state == BREAKER_OPEN
        return breaker

    def _half_open_breaker(self):
        breaker = self._open_breaker()
        for _ in range(3):                        # cooldown rounds
            breaker.observe_round(0, 0, 0)
        assert breaker.state == BREAKER_HALF_OPEN
        return breaker

    def test_opens_on_fault_rate(self, registry):
        breaker = CircuitBreaker()
        for row in OPENING_ROUNDS[:-1]:
            breaker.observe_round(*row)
        assert breaker.state == BREAKER_CLOSED    # window not full yet
        breaker.observe_round(*OPENING_ROUNDS[-1])
        assert breaker.state == BREAKER_OPEN
        assert breaker.force_fallback

    def test_opens_on_low_acceptance_once_enough_drafted(self, registry):
        # 4 rounds x 4 drafted = the 16-token minimum, acceptance 2/16 < 0.15
        breaker = CircuitBreaker()
        for accepted in (1, 1, 0, 0):
            breaker.observe_round(n_drafted=4, n_accepted=accepted, n_faults=0)
        assert breaker.state == BREAKER_OPEN

    def test_low_acceptance_needs_min_drafted(self, registry):
        breaker = CircuitBreaker()
        for _ in range(6):                        # 12 drafted per window < 16
            breaker.observe_round(n_drafted=3, n_accepted=0, n_faults=0)
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_then_half_open_then_reclose(self, registry):
        breaker = self._open_breaker()
        breaker.observe_round(0, 0, 0)            # cooldown round 1
        breaker.observe_round(0, 0, 0)            # cooldown round 2
        assert breaker.state == BREAKER_OPEN
        breaker.observe_round(0, 0, 0)            # cooldown round 3
        assert breaker.state == BREAKER_HALF_OPEN
        # idle rounds prove nothing and are not probes
        breaker.observe_round(0, 0, 0)
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.observe_round(4, 3, 0)            # probe 1: healthy
        breaker.observe_round(4, 3, 0)            # probe 2: healthy
        assert breaker.state == BREAKER_CLOSED
        states = [(src, dst) for _, src, dst in breaker.transitions]
        assert states == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_probe_fault_reopens_immediately(self, registry):
        breaker = self._half_open_breaker()
        breaker.observe_round(4, 4, 1)            # probe faults
        assert breaker.state == BREAKER_OPEN

    def test_weak_probes_reopen_with_hysteresis(self, registry):
        # acceptance 5/20 = 0.25 clears the open bar (0.15) but not the
        # re-close bar (0.3): hysteresis keeps the breaker open.
        breaker = self._half_open_breaker()
        breaker.observe_round(10, 2, 0)
        breaker.observe_round(10, 3, 0)
        assert breaker.state == BREAKER_OPEN

    def test_transitions_publish_to_registry(self, registry):
        breaker = CircuitBreaker()
        assert registry.get("resilience.breaker_state").value == 0
        for row in OPENING_ROUNDS:
            breaker.observe_round(*row)
        assert registry.get("resilience.breaker_state").value == 2
        assert registry.get("resilience.breaker_transitions_total").value == 1
        assert registry.get("resilience.breaker_opened_total").value == 1


class TestShedConfig:
    def test_invalid_policy_rejected(self):
        # the shed policy is its threshold: it must be a positive wait
        for max_queue_ms in (0.0, -10.0):
            with pytest.raises(ServingError):
                ServingConfig(max_queue_ms=max_queue_ms)


# ---------------------------------------------------------------------------
class TestQueueResilienceOps:
    def _queue_with(self, samples, ids, **request_kw):
        queue = AdmissionQueue(max_depth=8)
        handles = [queue.submit(ServeRequest(request_id=rid, sample=samples[0],
                                             **request_kw), now_ms=0.0)
                   for rid in ids]
        return queue, handles

    def test_requeue_goes_to_front_and_is_capacity_exempt(self, world):
        queue, handles = self._queue_with(world["samples"],
                                          [f"r{i}" for i in range(8)])
        retry = queue.pop_ready(1)[0]
        assert queue.free == 1
        queue.pop_ready(7)          # drain, then refill to capacity
        for i in range(8, 16):
            queue.submit(ServeRequest(request_id=f"r{i}", sample=world["samples"][0]),
                         now_ms=0.0)
        queue.requeue(retry)        # full queue must still accept a retry
        assert queue.depth == 9
        assert queue.pop_ready(1)[0] is retry   # and it goes to the front

    def test_oldest_wait_tracks_head_of_queue(self, world):
        queue = AdmissionQueue(max_depth=4)
        assert queue.oldest_wait_ms(now_ms=50.0) is None
        queue.submit(ServeRequest(request_id="a", sample=world["samples"][0]),
                     now_ms=10.0)
        queue.submit(ServeRequest(request_id="b", sample=world["samples"][0]),
                     now_ms=40.0)
        assert queue.oldest_wait_ms(now_ms=50.0) == 40.0
        queue.pop_ready(1)
        assert queue.oldest_wait_ms(now_ms=50.0) == 10.0

    def test_shed_newest_drains_tail_to_target(self, world):
        queue, _ = self._queue_with(world["samples"], [f"r{i}" for i in range(6)])
        shed = queue.shed_newest(2)
        assert [h.request_id for h in shed] == ["r5", "r4", "r3", "r2"]
        assert queue.depth == 2
        with pytest.raises(ServingError):
            queue.shed_newest(-1)


# ---------------------------------------------------------------------------
def _resilient_config(**overrides):
    overrides.setdefault("retry", True)
    return ServingConfig(max_batch_size=overrides.pop("max_batch_size", 4),
                         **overrides)


class TestRetryIntegration:
    def test_transient_fault_retried_token_identical(
            self, world, make_engine, sequential_records, registry):
        # Every request crashes its draft once (at request-local step 2);
        # the retry must complete it with the clean run's exact tokens.
        head = FaultyDraftHead(world["head"], mode="raise", transient=True,
                               per_request=True, fail_steps=[2])
        engine = make_engine(head=head, fallback_on_fault=False)
        samples = world["samples"][:4]
        scheduler = ContinuousBatchingScheduler(engine, _resilient_config())
        report = serve_requests(engine, samples, scheduler=scheduler)

        assert report.count(STATUS_COMPLETED) == len(samples)
        assert report.n_retries == len(samples)
        for result, solo in zip(report.results, sequential_records):
            assert result.record.token_ids == solo.token_ids, result.request_id
        assert registry.get("resilience.retries_total").value == report.n_retries
        assert registry.get("resilience.pending_retries").value == 0

    def test_sampled_retry_replays_clean_run_and_spares_batch_mates(
            self, world, make_engine):
        # One request of a sampled batch dies on a transient fault and is
        # retried.  Its random stream is re-derived from its id, so it
        # emits the clean run's tokens — and, unlike a rewind of shared
        # RNG state, the retry leaves its batch-mates' draws alone.  Both
        # runs draft in lockstep; in the faulted one the wrapper hands the
        # afflicted row's exception back in its slot of step_packed, so
        # only that session's outcome is the fault.
        sampled = SamplerConfig(greedy=False, temperature=0.8, top_p=0.95)
        samples = world["samples"][:4]
        ids = [f"req-{i:03d}" for i in range(len(samples))]
        clean = serve_requests(make_engine(sampler_config=sampled), samples,
                               _resilient_config())

        def storm(seed):
            return FaultyDraftHead(world["head"], mode="raise", transient=True,
                                   request_fault_rate=0.3, fault_horizon=4, seed=seed)

        head = next(h for h in map(storm, range(100))
                    if sum(bool(h.storm_steps(rid)) for rid in ids) == 1)
        engine = make_engine(head=head, fallback_on_fault=False, sampler_config=sampled)
        report = serve_requests(engine, samples, _resilient_config())

        assert report.n_retries == 1 and head.n_faults == 1
        assert report.count(STATUS_COMPLETED) == len(samples)
        for retried, reference in zip(report.results, clean.results):
            assert retried.record.token_ids == reference.record.token_ids, (
                retried.request_id)

    def test_persistent_fault_fails_without_retry(self, world, make_engine):
        head = FaultyDraftHead(world["head"], mode="raise", transient=False,
                               per_request=True, fail_steps=[0])
        engine = make_engine(head=head, fallback_on_fault=False)
        report = serve_requests(engine, world["samples"][:2],
                                _resilient_config())
        assert report.count(STATUS_FAILED) == 2
        assert report.n_retries == 0

    def test_retry_budget_exhausted_fails(self, world, make_engine):
        # Faulting every request-local step burns the whole budget.
        head = FaultyDraftHead(world["head"], mode="raise", transient=True,
                               per_request=True, fail_every=1)
        engine = make_engine(head=head, fallback_on_fault=False)
        report = serve_requests(engine, world["samples"][:1],
                                _resilient_config())
        assert report.count(STATUS_FAILED) == 1
        assert report.n_retries == resilience.MAX_RETRIES

    def test_no_retry_scheduled_past_deadline(self, world, make_engine):
        head = FaultyDraftHead(world["head"], mode="raise", transient=True,
                               per_request=True, fail_steps=[0])
        engine = make_engine(head=head, fallback_on_fault=False)
        request = ServeRequest(request_id="tight", sample=world["samples"][0],
                               deadline_ms=30.0)
        report = serve_requests(engine, [request], _resilient_config())
        # The fault hits the first draft step, after the prefill; a 20 ms
        # backoff from there lands past the 30 ms deadline, so it is terminal.
        assert report.results[0].status == STATUS_FAILED
        assert report.n_retries == 0

    def test_retry_logged_with_request_id_and_count(
            self, world, make_engine, caplog, propagating_logs):
        head = FaultyDraftHead(world["head"], mode="raise", transient=True,
                               per_request=True, fail_steps=[1])
        engine = make_engine(head=head, fallback_on_fault=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            serve_requests(engine, world["samples"][:1], _resilient_config())
        retry_logs = [r for r in caplog.records
                      if getattr(r, "event", "") == "request_retry"]
        assert retry_logs, "expected a structured request_retry log"
        assert retry_logs[0].request_id == "req-000"
        assert retry_logs[0].retry_count == 1

    def test_terminal_failure_logged_with_retry_count(
            self, world, make_engine, caplog, propagating_logs):
        head = FaultyDraftHead(world["head"], mode="raise", transient=False,
                               per_request=True, fail_steps=[1])
        engine = make_engine(head=head, fallback_on_fault=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            serve_requests(engine, world["samples"][:1], _resilient_config())
        failures = [r for r in caplog.records
                    if getattr(r, "event", "") == "step_failed"]
        assert failures and failures[0].request_id == "req-000"
        assert failures[0].retry_count == 0


class TestBreakerIntegration:
    def test_breaker_opens_and_batch_stays_lossless(
            self, world, make_engine, sequential_records, registry):
        # Every draft step spikes; the engine absorbs each fault in place
        # (fallback_on_fault) while the breaker learns speculation is
        # useless and flips the batch target-only.  Degraded decoding is
        # AR-identical, so outputs still match the clean oracle exactly.
        head = FaultyDraftHead(world["head"], mode="latency", fail_every=1)
        engine = make_engine(head=head, fallback_on_fault=True,
                             max_draft_faults=10_000)
        config = _resilient_config(retry=False, breaker=True)
        scheduler = ContinuousBatchingScheduler(engine, config)
        samples = world["samples"][:4]
        report = serve_requests(engine, samples, scheduler=scheduler)

        assert report.count(STATUS_COMPLETED) == len(samples)
        for result, solo in zip(report.results, sequential_records):
            assert result.record.token_ids == solo.token_ids, result.request_id
        assert report.breaker_transitions
        first = report.breaker_transitions[0]
        assert (first[1], first[2]) == (BREAKER_CLOSED, BREAKER_OPEN)
        # exact reconciliation with the registry
        assert (registry.get("resilience.breaker_transitions_total").value
                == len(report.breaker_transitions))

    def test_healthy_run_never_transitions(self, world, make_engine, registry):
        # The untrained head's acceptance is naturally low enough to open
        # the breaker; the target drafting for itself accepts every token,
        # so a fault-free run of it is healthy on both open bars.
        engine = make_engine(head=LlavaDraft(world["target"], "self-draft"))
        config = _resilient_config(retry=False, breaker=True)
        report = serve_requests(engine, world["samples"][:3], config)
        assert report.count(STATUS_COMPLETED) == 3
        assert report.breaker_transitions == ()
        assert registry.get("resilience.breaker_state").value == 0


class TestShedIntegration:
    def test_reject_newest_sheds_under_pressure(self, world, make_engine):
        engine = make_engine()
        config = ServingConfig(max_batch_size=1, max_queue_depth=4,
                               max_queue_ms=200.0)
        report = serve_requests(engine, world["samples"], config)
        assert report.n_shed > 0
        assert report.count(STATUS_REJECTED) >= report.n_shed
        rejected = [r for r in report.results if r.status == STATUS_REJECTED]
        assert any("shed under queue pressure" in (r.error or "")
                   for r in rejected)
        # everything still resolves terminally
        assert len(report.results) == len(world["samples"])


class TestDeadlineInRound:
    def test_mid_round_expiry_keeps_partial_output(
            self, world, make_engine, sequential_records):
        engine = make_engine()
        request = ServeRequest(request_id="tight", sample=world["samples"][0],
                               deadline_ms=30.0)
        report = serve_requests(engine, [request], _resilient_config())
        result = report.results[0]
        assert result.status == STATUS_TIMEOUT
        tokens = list(result.record.token_ids)
        assert len(tokens) < MAX_NEW_TOKENS
        oracle = list(sequential_records[0].token_ids)
        assert tokens == oracle[: len(tokens)]

    def test_plain_config_expires_before_verify(
            self, world, make_engine, sequential_records):
        # No policy is switched on: the deadline still reaches the round,
        # so the request retires before its verify forward, not after it.
        engine = make_engine()
        request = ServeRequest(request_id="tight", sample=world["samples"][0],
                               deadline_ms=30.0)
        report = serve_requests(engine, [request], ServingConfig())
        result = report.results[0]
        assert result.status == STATUS_TIMEOUT
        assert result.error == "deadline expired mid-round"
        tokens = list(result.record.token_ids)
        assert 0 < len(tokens) < MAX_NEW_TOKENS
        oracle = list(sequential_records[0].token_ids)
        assert tokens == oracle[: len(tokens)]

    def test_legacy_config_unchanged_without_resilience(
            self, world, make_engine, sequential_records):
        engine = make_engine()
        report = serve_requests(engine, world["samples"][:4],
                                ServingConfig(max_batch_size=4))
        assert report.count(STATUS_COMPLETED) == 4
        assert report.n_retries == 0 and report.n_shed == 0
        assert report.breaker_transitions == ()
        for result, solo in zip(report.results, sequential_records):
            assert result.record.token_ids == solo.token_ids


class TestFacade:
    def test_mismatched_scheduler_rejected(self, world, make_engine):
        engine_a, engine_b = make_engine(), make_engine()
        scheduler = ContinuousBatchingScheduler(engine_a, ServingConfig())
        with pytest.raises(ServingError):
            serve_requests(engine_b, world["samples"][:1], scheduler=scheduler)
