"""Unit tests for the guard validators and the deterministic fault injectors."""

import numpy as np
import pytest

from repro.core.hybrid_cache import SEGMENT_TEXT, HybridKVCache
from repro.errors import ConfigError, DecodingError, GuardViolation
from repro.decoding.sampling import SamplerConfig, logits_to_probs
from repro.decoding.tree import TreeDraft, speculative_verify
from repro.nn.layers import Linear
from repro.robustness import (
    ArenaPressureFault,
    DraftFault,
    FaultyDraftHead,
    LatencySpikeFault,
    NaNLogitsFault,
    all_finite,
    check_hybrid_cache,
    ensure_finite,
    inject_nan_weights,
    is_transient,
)


class TestFiniteGuards:
    def test_ensure_finite_passes_clean(self):
        arr = np.ones((2, 3))
        assert ensure_finite(arr, "x") is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensure_finite_raises(self, bad):
        arr = np.ones(4)
        arr[2] = bad
        with pytest.raises(GuardViolation) as excinfo:
            ensure_finite(arr, "draft logits")
        assert "draft logits" in str(excinfo.value)

    def test_all_finite(self):
        assert all_finite(np.zeros(3))
        assert not all_finite(np.array([1.0, np.nan]))


class TestCacheGuard:
    def _cache(self, n=4, n_heads=2, head_dim=4):
        cache = HybridKVCache(n_heads, head_dim)
        k = np.ones((1, n_heads, n, head_dim), dtype=np.float32)
        cache.append_context(k, k, np.arange(n, dtype=np.int64), SEGMENT_TEXT)
        return cache

    def test_clean_cache_passes(self):
        check_hybrid_cache(self._cache())

    def test_nan_in_draft_segment_detected(self):
        cache = self._cache()
        bad = np.full((1, 2, 1, 4), np.nan, dtype=np.float32)
        cache.append_draft(bad, bad, np.asarray([9], dtype=np.int64))
        with pytest.raises(GuardViolation):
            check_hybrid_cache(cache)

    def test_negative_positions_detected(self):
        cache = HybridKVCache(2, 4)
        k = np.ones((1, 2, 1, 4), dtype=np.float32)
        cache.append_context(k, k, np.asarray([-1], dtype=np.int64), SEGMENT_TEXT)
        with pytest.raises(GuardViolation):
            check_hybrid_cache(cache)


class TestNanWeightInjection:
    def test_deterministic_and_counted(self, rng):
        a = Linear(8, 8, rng=np.random.default_rng(0))
        b = Linear(8, 8, rng=np.random.default_rng(0))
        n_a = inject_nan_weights(a, fraction=0.1, seed=5)
        n_b = inject_nan_weights(b, fraction=0.1, seed=5)
        assert n_a == n_b > 0
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(np.isnan(pa.data), np.isnan(pb.data))
            assert np.isnan(pa.data).sum() > 0

    def test_bad_fraction_rejected(self, rng):
        with pytest.raises(ConfigError):
            inject_nan_weights(Linear(2, 2, rng=rng), fraction=0.0)


class TestFaultyDraftHeadSchedule:
    class _StubHead:
        class config:
            vocab_size = 11
            n_heads = 2
            head_dim = 4

        def step(self, token_id, position, hybrid, **kwargs):
            return np.zeros(11)

    def test_fail_steps_pins_exact_indices(self):
        head = FaultyDraftHead(self._StubHead(), mode="nan-logits", fail_steps=[1, 3])
        results = [head.step(0, i, None) for i in range(5)]
        nan_steps = [i for i, r in enumerate(results) if np.isnan(r).any()]
        assert nan_steps == [1, 3]
        assert head.n_faults == 2 and head.n_steps == 5

    def test_fail_every_with_offset(self):
        head = FaultyDraftHead(self._StubHead(), mode="inf-logits", fail_every=2, start_step=1)
        results = [head.step(0, i, None) for i in range(6)]
        inf_steps = [i for i, r in enumerate(results) if np.isinf(r).any()]
        assert inf_steps == [1, 3, 5]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            FaultyDraftHead(self._StubHead(), mode="gremlins")

    def test_delegates_attributes(self):
        head = FaultyDraftHead(self._StubHead())
        assert head.config.vocab_size == 11


class TestFaultTaxonomy:
    def test_transient_flags_by_type(self):
        assert not is_transient(DraftFault("generic"))
        assert is_transient(DraftFault("flaky", transient=True))
        assert is_transient(LatencySpikeFault("slow"))
        assert is_transient(ArenaPressureFault("oom"))
        assert not is_transient(NaNLogitsFault("nan"))

    def test_subtypes_are_draft_faults(self):
        for cls in (LatencySpikeFault, ArenaPressureFault, NaNLogitsFault):
            assert issubclass(cls, DraftFault)

    def test_non_draft_exceptions_are_persistent(self):
        assert not is_transient(RuntimeError("boom"))
        assert not is_transient(ValueError("bad"))


class TestPerRequestSchedule:
    """Per-request fault keying: schedules must not depend on batch order."""

    def _head(self, **kwargs):
        return FaultyDraftHead(TestFaultyDraftHeadSchedule._StubHead(),
                               mode="raise", per_request=True, **kwargs)

    def _drive(self, head, plan):
        """Step request ids in ``plan`` order; return ids that faulted."""
        faulted = []
        for rid in plan:
            try:
                head.step(0, 0, None, request_id=rid)
            except DraftFault:
                faulted.append(rid)
        return faulted

    def test_interleaving_does_not_move_faults(self):
        # Each request faults at its *own* step 1, no matter how the
        # scheduler interleaves the two requests.
        sequential = self._drive(self._head(fail_steps=[1]),
                                 ["a", "a", "a", "b", "b", "b"])
        interleaved = self._drive(self._head(fail_steps=[1]),
                                  ["a", "b", "a", "b", "a", "b"])
        assert sorted(sequential) == sorted(interleaved) == ["a", "b"]

    def test_global_schedule_remains_order_dependent_default(self):
        # The legacy global counter is preserved as the default.
        head = FaultyDraftHead(TestFaultyDraftHeadSchedule._StubHead(),
                               mode="raise", fail_steps=[0])
        faulted = self._drive(head, ["a", "b"])
        assert faulted == ["a"]
        assert not head.per_request

    def test_storm_schedule_is_deterministic_and_rate_bounded(self):
        head = self._head(request_fault_rate=0.2, seed=9)
        ids = [f"req-{i:03d}" for i in range(200)]
        afflicted = [rid for rid in ids if head.storm_steps(rid)]
        # identical on a second head with the same seed
        again = self._head(request_fault_rate=0.2, seed=9)
        assert afflicted == [rid for rid in ids if again.storm_steps(rid)]
        # roughly the configured rate, and inside the horizon
        assert 0.1 <= len(afflicted) / len(ids) <= 0.3
        for rid in afflicted:
            assert all(0 <= s < head.fault_horizon for s in head.storm_steps(rid))

    def test_storm_rate_extremes(self):
        assert not self._head(request_fault_rate=0.0).storm_steps("anything")
        assert self._head(request_fault_rate=1.0).storm_steps("anything")

    def test_retry_runs_past_one_shot_fault(self):
        # The per-request counter never resets: after the fault at step 0
        # fires once, a retried request keeps stepping cleanly.
        head = self._head(request_fault_rate=1.0, faults_per_request=1,
                          fault_horizon=1, transient=True)
        with pytest.raises(DraftFault) as excinfo:
            head.step(0, 0, None, request_id="r")
        assert excinfo.value.transient
        for _ in range(5):   # the "retry" resumes at index 1
            head.step(0, 0, None, request_id="r")
        assert head.faults_by_request["r"] == 1


class TestSamplingHardening:
    def test_partial_nan_logits_masked(self):
        logits = np.array([1.0, np.nan, 3.0, np.inf])
        probs = logits_to_probs(logits, SamplerConfig(greedy=True))
        assert probs[2] == 1.0 and probs.sum() == 1.0

    def test_partial_nan_logits_masked_sampling(self):
        logits = np.array([1.0, np.nan, 3.0, -np.inf])
        probs = logits_to_probs(logits, SamplerConfig(greedy=False, temperature=1.0))
        assert np.isfinite(probs).all()
        assert probs[1] == 0.0 and probs[3] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_all_nan_logits_raise(self):
        with pytest.raises(DecodingError):
            logits_to_probs(np.full(5, np.nan), SamplerConfig())

    def test_verify_with_nan_draft_probs_rejects_losslessly(self, rng):
        config = SamplerConfig(greedy=False, temperature=1.0)
        vocab = 6
        target_logits = np.zeros((2, vocab))
        target_logits[:, 2] = 50.0  # target overwhelmingly wants token 2
        draft_probs = np.full((1, vocab), np.nan)
        outcome = speculative_verify(TreeDraft.chain([4]), draft_probs, target_logits, config, rng)
        assert outcome.n_accepted == 0
        assert outcome.next_token == 2
        assert not outcome.all_accepted

    def test_verify_greedy_unaffected_by_nan_draft_probs(self, rng):
        config = SamplerConfig(greedy=True)
        vocab = 6
        target_logits = np.zeros((2, vocab))
        target_logits[0, 4] = 10.0
        target_logits[1, 1] = 10.0
        draft_probs = np.full((1, vocab), np.nan)
        outcome = speculative_verify(TreeDraft.chain([4]), draft_probs, target_logits, config, rng)
        assert outcome.accepted == (4,)
        assert outcome.next_token == 1
