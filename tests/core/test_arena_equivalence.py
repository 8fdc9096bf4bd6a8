"""Decode equivalence: arena-backed storage is a pure perf change.

Greedy decoding — solo ``AASDEngine.decode`` and batched
``serve_requests`` — must emit **token-identical** output whether the
engine runs on the arena-backed caches (production) or on the
concatenate-based reference caches from ``repro.core.reference``
(the pre-arena implementations), given identical seeds.  This is the
ISSUE acceptance criterion that the storage rewrite changes cost, never
results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.draft_head as draft_head_mod
import repro.models.llama as llama_mod
from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.core.reference import ReferenceHybridKVCache, ReferenceKVCache
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, get_profile
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llava import MiniLlava
from repro.serving import STATUS_COMPLETED, ServingConfig, serve_requests

MAX_NEW_TOKENS = 20
N_SAMPLES = 4


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
    cm = CostModel(get_profile("sim-7b"))
    samples = make_dataset("coco-sim", N_SAMPLES, seed=4).samples
    return dict(target=target, head=head, cm=cm, samples=samples, tokenizer=tokenizer)


def _engine(world, seed=7, gamma=3):
    return AASDEngine(
        world["target"], world["head"], world["tokenizer"], world["cm"],
        AASDEngineConfig(gamma=gamma, max_new_tokens=MAX_NEW_TOKENS),
        rng=np.random.default_rng(seed),
    )


def _with_reference_caches(monkeypatch):
    """Swap both KV stores for the pre-arena reference implementations."""
    monkeypatch.setattr(llama_mod, "KVCache", ReferenceKVCache)
    monkeypatch.setattr(draft_head_mod, "HybridKVCache", ReferenceHybridKVCache)


def test_solo_decode_token_identical(world, monkeypatch):
    arena_records = [_engine(world).decode(s) for s in world["samples"]]
    _with_reference_caches(monkeypatch)
    reference_records = [_engine(world).decode(s) for s in world["samples"]]
    for arena, reference in zip(arena_records, reference_records):
        assert arena.token_ids == reference.token_ids
        assert arena.text == reference.text
        assert arena.sim_time_ms == pytest.approx(reference.sim_time_ms)


def test_batched_serving_token_identical(world, monkeypatch):
    config = ServingConfig(max_batch_size=4)
    arena_report = serve_requests(_engine(world), world["samples"], config)
    _with_reference_caches(monkeypatch)
    reference_report = serve_requests(_engine(world), world["samples"], config)

    assert arena_report.count(STATUS_COMPLETED) == N_SAMPLES
    assert reference_report.count(STATUS_COMPLETED) == N_SAMPLES
    for arena, reference in zip(arena_report.results, reference_report.results):
        assert arena.record.token_ids == reference.record.token_ids, arena.request_id

    # The arena run accounts its copies; the reference caches are opaque
    # to the stats plumbing (no arena_stats), reporting zero.
    assert arena_report.peak_cache_tokens > 0
    assert reference_report.bytes_copied == 0


@pytest.mark.parametrize("gamma", [1, 5])
def test_gamma_variants_token_identical(world, monkeypatch, gamma):
    """Different block sizes stress different rollback/append patterns."""
    arena_record = _engine(world, gamma=gamma).decode(world["samples"][0])
    _with_reference_caches(monkeypatch)
    reference_record = _engine(world, gamma=gamma).decode(world["samples"][0])
    assert arena_record.token_ids == reference_record.token_ids
