"""Engine graceful degradation: a broken drafter costs speed, never output.

These tests run on tiny *untrained* models — losslessness is a structural
property of draft-then-verify, not of training quality, so greedy AASD
output must match greedy autoregressive output token-for-token even when
the draft path is actively sabotaged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.draft_head import AASDDraftHead, DraftHeadConfig
from repro.core.engine import AASDEngine, AASDEngineConfig
from repro.data.tasks import make_dataset
from repro.decoding import AutoregressiveDecoder
from repro.decoding.cost_model import CostModel, get_profile
from repro.decoding.metrics import aggregate_metrics
from repro.errors import DecodingError, GuardViolation
from repro.robustness import DraftFault, FaultyDraftHead, inject_nan_weights


@pytest.fixture(scope="module")
def tiny(tokenizer):
    from repro.models.config import get_config
    from repro.models.llava import MiniLlava

    target = MiniLlava(get_config("sim-112m-llava", tokenizer.vocab_size),
                       rng=np.random.default_rng(0))
    target.eval()
    head = AASDDraftHead(
        DraftHeadConfig.for_target(target.config.llama,
                                   n_vision_tokens=target.n_vision_tokens),
        rng=np.random.default_rng(1),
    )
    head.init_from_target(target.llama)
    head.eval()
    return target, head


@pytest.fixture(scope="module")
def samples():
    return list(make_dataset("coco-sim", 2, seed=0))


@pytest.fixture(scope="module")
def cost_model():
    return CostModel(get_profile("sim-7b"))


@pytest.fixture(scope="module")
def ar_records(tiny, tokenizer, cost_model, samples):
    target, _ = tiny
    decoder = AutoregressiveDecoder(target, tokenizer, cost_model, max_new_tokens=16)
    return [decoder.decode(s) for s in samples]


def _engine(target, head, tokenizer, cost_model, **overrides):
    config = AASDEngineConfig(gamma=3, max_new_tokens=16, **overrides)
    return AASDEngine(target, head, tokenizer, cost_model, config)


class TestFaultModes:
    @pytest.mark.parametrize("mode", ["nan-logits", "inf-logits", "raise", "corrupt-cache"])
    def test_output_matches_ar_and_faults_counted(
        self, tiny, tokenizer, cost_model, samples, ar_records, mode
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode=mode, fail_every=2)
        engine = _engine(target, faulty, tokenizer, cost_model)
        for sample, ar in zip(samples, ar_records):
            record = engine.decode(sample)
            assert record.token_ids == ar.token_ids
            assert record.n_draft_faults > 0
            assert record.degraded
            assert record.fault_log

    def test_every_step_faulting_goes_target_only(
        self, tiny, tokenizer, cost_model, samples, ar_records
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode="nan-logits", fail_every=1)
        engine = _engine(target, faulty, tokenizer, cost_model, max_draft_faults=2)
        record = engine.decode(samples[0])
        assert record.token_ids == ar_records[0].token_ids
        assert record.fallback_mode == "target-only"
        assert record.n_draft_faults == 2          # capped by max_draft_faults
        assert record.n_fallback_steps > 0
        assert record.blocks == []                 # no block ever verified

    def test_single_fault_recovers_and_keeps_speculating(
        self, tiny, tokenizer, cost_model, samples, ar_records
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode="raise", fail_steps=[0])
        engine = _engine(target, faulty, tokenizer, cost_model)
        record = engine.decode(samples[0])
        assert record.token_ids == ar_records[0].token_ids
        assert record.n_draft_faults == 1
        assert record.fallback_mode == "degraded"  # never escalated
        assert record.blocks                       # speculation resumed

    def test_nan_weights_in_head_degrade_gracefully(
        self, tokenizer, cost_model, samples, ar_records, tiny
    ):
        target, _ = tiny
        head = AASDDraftHead(
            DraftHeadConfig.for_target(target.config.llama,
                                       n_vision_tokens=target.n_vision_tokens),
            rng=np.random.default_rng(1),
        )
        head.init_from_target(target.llama)
        head.eval()
        engine = _engine(target, head, tokenizer, cost_model)
        assert engine.decode(samples[0]).n_draft_faults == 0
        # poisoned while the engine serves the head: its operands follow
        inject_nan_weights(head, fraction=0.02, seed=0)
        record = engine.decode(samples[0])
        assert record.token_ids == ar_records[0].token_ids
        assert record.n_draft_faults > 0

    def test_clean_decode_reports_no_faults(
        self, tiny, tokenizer, cost_model, samples, ar_records
    ):
        target, head = tiny
        engine = _engine(target, head, tokenizer, cost_model)
        for sample, ar in zip(samples, ar_records):
            record = engine.decode(sample)
            assert record.token_ids == ar.token_ids
            assert record.n_draft_faults == 0
            assert not record.degraded
            assert record.fallback_mode == "none"


class TestTargetCheck:
    @pytest.mark.parametrize("geometry", [{"n_heads": 2}, {"dim": 24, "n_heads": 2}],
                             ids=["heads", "dim"])
    def test_head_with_other_kv_geometry_is_rejected(self, tiny, tokenizer, cost_model,
                                                     geometry):
        # the head attends the target's own K/V rows: a mismatch must fail
        # at construction, not as a draft fault on every request
        target, _ = tiny
        config = replace(DraftHeadConfig.for_target(
            target.config.llama, n_vision_tokens=target.n_vision_tokens), **geometry)
        head = AASDDraftHead(config, rng=np.random.default_rng(1))
        with pytest.raises(DecodingError, match="geometry"):
            _engine(target, head, tokenizer, cost_model)


class TestFallbackDisabled:
    def test_fault_propagates_when_fallback_off(
        self, tiny, tokenizer, cost_model, samples
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode="nan-logits", fail_every=1)
        engine = _engine(target, faulty, tokenizer, cost_model, fallback_on_fault=False)
        with pytest.raises(GuardViolation):
            engine.decode(samples[0])

    def test_raise_mode_propagates_original_exception(
        self, tiny, tokenizer, cost_model, samples
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode="raise", fail_every=1)
        engine = _engine(target, faulty, tokenizer, cost_model, fallback_on_fault=False)
        with pytest.raises(DraftFault):
            engine.decode(samples[0])


class TestDegradedAggregation:
    def test_metrics_aggregate_fully_degraded_run(
        self, tiny, tokenizer, cost_model, samples, ar_records
    ):
        target, head = tiny
        faulty = FaultyDraftHead(head, mode="nan-logits", fail_every=1)
        engine = _engine(target, faulty, tokenizer, cost_model, max_draft_faults=1)
        sd = [engine.decode(s) for s in samples]
        report = aggregate_metrics(sd, ar_records)
        assert report.acceptance_rate == 0.0
        assert report.degraded_fraction == 1.0
        assert report.n_draft_faults >= len(samples)
        assert report.n_fallback_steps > 0

    def test_clean_run_reports_zero_degradation(
        self, tiny, tokenizer, cost_model, samples, ar_records
    ):
        target, head = tiny
        engine = _engine(target, head, tokenizer, cost_model)
        sd = [engine.decode(s) for s in samples]
        report = aggregate_metrics(sd, ar_records)
        assert report.degraded_fraction == 0.0
        assert report.n_draft_faults == 0
