"""Fixtures for serving tests: a tiny AASD world plus engine factories.

Untrained models are fine here — batching correctness (token identity,
isolation, deadlines) is structural, exactly like the losslessness
properties in ``tests/robustness``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, LlamaTextDraft, get_profile
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava

MAX_NEW_TOKENS = 20


@pytest.fixture(scope="module")
def world(tokenizer):
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1,
                                n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
            n_vision_tokens=9, k_compressed=3,
        ),
        rng=gen,
    )
    # an independent draft (a Table 1 baseline row) served by the same round
    dt_llama = LlamaTextDraft(MiniLlama(
        LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24), rng=gen,
    ), "dt-llama")
    cm = CostModel(get_profile("sim-7b"))
    samples = make_dataset("coco-sim", 8, seed=4).samples
    return dict(target=target, head=head, dt_llama=dt_llama, cm=cm, samples=samples,
                tokenizer=tokenizer)


@pytest.fixture(scope="module")
def sequential_records(world):
    """Per-sample records from plain sequential ``decode`` (the oracle)."""
    engine = AASDEngine(
        world["target"], world["head"], world["tokenizer"], world["cm"],
        AASDEngineConfig(gamma=3, max_new_tokens=MAX_NEW_TOKENS),
        rng=np.random.default_rng(7),
    )
    return [engine.decode(s) for s in world["samples"]]


@pytest.fixture()
def make_engine(world):
    """Factory for fresh engines over the shared world (seeded; greedy
    unless a ``sampler_config`` override says otherwise)."""

    def build(head=None, tracer=None, sampler_config=None, **overrides) -> AASDEngine:
        config = AASDEngineConfig(
            gamma=overrides.pop("gamma", 3),
            max_new_tokens=overrides.pop("max_new_tokens", MAX_NEW_TOKENS),
            **overrides,
        )
        return AASDEngine(
            world["target"],
            head if head is not None else world["head"],
            world["tokenizer"],
            world["cm"],
            config,
            sampler_config=sampler_config,
            rng=np.random.default_rng(7),
            tracer=tracer,
        )

    return build
