"""Property-based (hypothesis) pins for tree speculation.

Across randomly drawn model weights, gammas, and fault cadences:

* a branch-factor-1 tree is **bitwise** identical to the linear
  speculative path — committed tokens, simulated time, target-forward
  counts, and per-block acceptance all match exactly,
* tree speculation stays lossless (greedy-AR token identity) even when
  the draft head is wrapped in a fault injector (which gates the engine
  back onto the linear fallback path), and after every step the target
  cache holds exactly the committed context at positions ``0 .. T-1``,
* a tree-configured engine under ``force_fallback`` is AR-identical.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.draft_head import AASDDraftHead, DraftHeadConfig
from repro.core.engine import AASDEngine, AASDEngineConfig
from repro.data.tasks import make_dataset
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.cost_model import CostModel, get_profile
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llava import MiniLlava
from repro.robustness.faults import FaultyDraftHead

MAX_NEW_TOKENS = 10


def _world(tokenizer, seed):
    gen = np.random.default_rng(seed)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2,
                              mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1,
                                n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
            n_vision_tokens=target.n_vision_tokens, k_compressed=3,
        ),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    sample = make_dataset("coco-sim", 1, seed=seed)[0]
    return target, head, cm, sample


def _engine(tokenizer, target, head, cm, gamma, **tree_overrides):
    return AASDEngine(
        target, head, tokenizer, cm,
        AASDEngineConfig(gamma=gamma, max_new_tokens=MAX_NEW_TOKENS, **tree_overrides),
    )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.integers(1, 4))
def test_branch1_tree_bitwise_equals_linear(seed, gamma, tokenizer):
    target, head, cm, sample = _world(tokenizer, seed)
    linear = _engine(tokenizer, target, head, cm, gamma).decode(sample)
    tree = _engine(
        tokenizer, target, head, cm, gamma,
        tree_speculation=True, tree_max_branch=1, tree_max_nodes=gamma,
    ).decode(sample)
    assert tree.token_ids == linear.token_ids
    assert tree.sim_time_ms == linear.sim_time_ms   # exact float equality
    assert tree.n_target_forwards == linear.n_target_forwards
    assert [(b.n_draft, b.n_accepted, b.n_emitted) for b in tree.blocks] == [
        (b.n_draft, b.n_accepted, b.n_emitted) for b in linear.blocks
    ]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.integers(1, 4),
       fail_every=st.integers(2, 6))
def test_tree_config_lossless_under_faults(seed, gamma, fail_every, tokenizer):
    target, head, cm, sample = _world(tokenizer, seed)
    ar = AutoregressiveDecoder(target, tokenizer, cm,
                               max_new_tokens=MAX_NEW_TOKENS).decode(sample)
    faulty = FaultyDraftHead(head, mode="nan-logits", fail_every=fail_every)
    sd = _engine(
        tokenizer, target, faulty, cm, gamma,
        tree_speculation=True, tree_max_branch=2, tree_max_nodes=6,
    ).decode(sample)
    assert sd.token_ids == ar.token_ids


def assert_canonical_target_cache(session):
    """The target cache holds the committed context, at positions ``0 .. T-1``."""
    cache = session.target_cache
    assert np.array_equal(cache.positions, np.arange(cache.seq_len))
    assert cache.seq_len == session.gen_base + len(session.committed) - 1


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.integers(1, 4),
       branch=st.integers(1, 3))
# the last block accepts its draft but the budget keeps only one token
@example(seed=62, gamma=1, branch=1)
def test_tree_lossless_and_fallback_ar_identical(seed, gamma, branch, tokenizer):
    target, head, cm, sample = _world(tokenizer, seed)
    ar = AutoregressiveDecoder(target, tokenizer, cm,
                               max_new_tokens=MAX_NEW_TOKENS).decode(sample)
    engine = _engine(
        tokenizer, target, head, cm, gamma,
        tree_speculation=True, tree_max_branch=branch, tree_max_nodes=6,
    )
    session = engine.begin(sample)
    while not session.finished:
        engine.step(session)
        assert_canonical_target_cache(session)
    assert engine.finish(session).token_ids == ar.token_ids
    engine = _engine(
        tokenizer, target, head, cm, gamma,
        tree_speculation=True, tree_max_branch=branch, tree_max_nodes=6,
    )
    session = engine.begin(sample)
    while not session.finished:
        engine.step(session, force_fallback=True)
    engine.finish(session)
    assert session.record.token_ids == ar.token_ids
    assert not session.record.blocks    # speculation never ran
