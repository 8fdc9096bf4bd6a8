"""Greedy generation helper tests (uninstrumented path)."""

import numpy as np
import pytest

from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.generation import GenerationLimits, greedy_generate
from repro.models.llava import MiniLlava


@pytest.fixture()
def llava(rng):
    cfg = LlavaConfig(
        llama=LlamaConfig(vocab_size=20, dim=16, n_layers=1, n_heads=2, mlp_hidden=32),
        vision=VisionConfig(image_size=12, patch_size=6, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
    )
    return MiniLlava(cfg, rng=rng)


class TestGreedyGenerate:
    def test_respects_max_tokens(self, llava, rng):
        img = rng.random((12, 12, 3)).astype(np.float32)
        out = greedy_generate(llava, img, np.array([1, 2]), GenerationLimits(max_new_tokens=5))
        assert len(out) <= 5

    def test_stops_at_eos(self, llava, rng):
        img = rng.random((12, 12, 3)).astype(np.float32)
        out = greedy_generate(
            llava, img, np.array([1, 2]), GenerationLimits(max_new_tokens=30, eos_id=None)
        )
        assert len(out) == 30  # without eos runs to the cap

    def test_deterministic(self, llava, rng):
        img = rng.random((12, 12, 3)).astype(np.float32)
        limits = GenerationLimits(max_new_tokens=8)
        a = greedy_generate(llava, img, np.array([1]), limits)
        b = greedy_generate(llava, img, np.array([1]), limits)
        assert a == b

    def test_eos_included_in_output(self, llava, rng):
        """When eos is generated it is the last returned token."""
        img = rng.random((12, 12, 3)).astype(np.float32)
        # Find the argmax-favoured token and use it as the eos to force a stop.
        first = greedy_generate(llava, img, np.array([1]), GenerationLimits(max_new_tokens=1))[0]
        out = greedy_generate(
            llava, img, np.array([1]), GenerationLimits(max_new_tokens=10, eos_id=first)
        )
        assert out[-1] == first
        assert len(out) == 1
