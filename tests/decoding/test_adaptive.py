"""Adaptive speculation-depth controller tests."""

import numpy as np
import pytest

from repro.decoding.adaptive import AdaptiveGamma, FixedGamma
from repro.errors import DecodingError


class TestFixedGamma:
    def test_constant(self):
        ctrl = FixedGamma(4)
        for _ in range(5):
            assert ctrl.next_gamma() == 4
            ctrl.update(2, 4)

    def test_rejects_bad_gamma(self):
        with pytest.raises(DecodingError):
            FixedGamma(0)

    def test_repr(self):
        assert "4" in repr(FixedGamma(4))


class TestAdaptiveGamma:
    def test_validation(self):
        with pytest.raises(DecodingError):
            AdaptiveGamma(initial_gamma=0)
        with pytest.raises(DecodingError):
            AdaptiveGamma(initial_gamma=5, max_gamma=3)
        with pytest.raises(DecodingError):
            AdaptiveGamma(raise_threshold=0.3, lower_threshold=0.5)
        with pytest.raises(DecodingError):
            AdaptiveGamma(smoothing=1.0)

    def test_grows_under_full_acceptance(self):
        ctrl = AdaptiveGamma(initial_gamma=2, max_gamma=6)
        for _ in range(20):
            gamma = ctrl.next_gamma()
            ctrl.update(gamma, gamma)
        assert ctrl.next_gamma() == 6

    def test_shrinks_under_rejection(self):
        ctrl = AdaptiveGamma(initial_gamma=5, min_gamma=1, max_gamma=6)
        for _ in range(20):
            gamma = ctrl.next_gamma()
            ctrl.update(0, gamma)
        assert ctrl.next_gamma() == 1

    def test_respects_bounds(self):
        ctrl = AdaptiveGamma(initial_gamma=3, min_gamma=2, max_gamma=4)
        for outcome in (1.0, 0.0, 1.0, 0.0) * 10:
            gamma = ctrl.next_gamma()
            assert 2 <= gamma <= 4
            ctrl.update(int(outcome * gamma), gamma)

    def test_reset_restores_initial(self):
        ctrl = AdaptiveGamma(initial_gamma=3, max_gamma=8)
        for _ in range(10):
            ctrl.update(ctrl.next_gamma(), ctrl.next_gamma())
        assert ctrl.next_gamma() != 3 or ctrl.acceptance_estimate != 0.5
        ctrl.reset()
        assert ctrl.next_gamma() == 3
        assert ctrl.acceptance_estimate == 0.5

    def test_update_rejects_bad_gamma(self):
        with pytest.raises(DecodingError):
            AdaptiveGamma().update(0, 0)

    def test_ewma_moves_towards_rate(self):
        ctrl = AdaptiveGamma(smoothing=0.5)
        ctrl.update(3, 3)
        assert ctrl.acceptance_estimate == pytest.approx(0.75)


class TestControllerInDecoders:
    def test_adaptive_sd_still_lossless(self, tokenizer):
        from repro.core import AASDEngine, AASDEngineConfig
        from repro.data.tasks import make_dataset
        from repro.decoding import (
            AutoregressiveDecoder,
            CostModel,
            LlamaTextDraft,
            get_profile,
        )
        from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
        from repro.models.llama import MiniLlama
        from repro.models.llava import MiniLlava

        gen = np.random.default_rng(0)
        target = MiniLlava(
            LlavaConfig(
                llama=LlamaConfig(vocab_size=tokenizer.vocab_size, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
                vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
            ),
            rng=gen,
        )
        draft = MiniLlama(
            LlamaConfig(vocab_size=tokenizer.vocab_size, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
            rng=gen,
        )
        cm = CostModel(get_profile("sim-7b"))
        sample = make_dataset("coco-sim", 1, seed=5)[0]
        ar = AutoregressiveDecoder(target, tokenizer, cm, max_new_tokens=14).decode(sample)
        sd = AASDEngine(
            target, LlamaTextDraft(draft), tokenizer, cm,
            AASDEngineConfig(gamma=3, max_new_tokens=14),
            gamma_controller=AdaptiveGamma(initial_gamma=2, max_gamma=5),
        ).decode(sample)
        assert sd.token_ids == ar.token_ids
        # adaptive blocks may have varying depth
        depths = {b.n_draft for b in sd.blocks}
        assert all(1 <= d <= 5 for d in depths)
