"""Cross-stack property-based tests (hypothesis).

These exercise the end-to-end invariants the library is built on, across
randomly drawn model weights, gammas, and inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.draft_head import AASDDraftHead, DraftHeadConfig
from repro.core.engine import AASDEngine, AASDEngineConfig
from repro.data.tasks import make_dataset
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.cost_model import CostModel, get_profile
from repro.decoding.sampling import SamplerConfig, logits_to_probs, speculative_verify
from repro.decoding.speculative import LlamaTextDraft
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.kv_cache import KVCache
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava


def make_world(tokenizer, seed):
    gen = np.random.default_rng(seed)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    return target, gen


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.integers(1, 5))
def test_sd_lossless_for_random_weights(seed, gamma, tokenizer):
    """Greedy SD equals AR for arbitrary target/draft weights and gamma."""
    target, gen = make_world(tokenizer, seed)
    draft = MiniLlama(
        LlamaConfig(vocab_size=tokenizer.vocab_size, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    sample = make_dataset("llava-bench-sim", 1, seed=seed)[0]
    ar = AutoregressiveDecoder(target, tokenizer, cm, max_new_tokens=12).decode(sample)
    sd = AASDEngine(
        target, LlamaTextDraft(draft), tokenizer, cm,
        AASDEngineConfig(gamma=gamma, max_new_tokens=12),
    ).decode(sample)
    assert sd.token_ids == ar.token_ids


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.integers(1, 4))
def test_aasd_lossless_for_random_weights(seed, gamma, tokenizer):
    target, gen = make_world(tokenizer, seed)
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=tokenizer.vocab_size, dim=16, n_heads=2, mlp_hidden=24,
            n_vision_tokens=target.n_vision_tokens, k_compressed=3,
        ),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    sample = make_dataset("coco-sim", 1, seed=seed)[0]
    ar = AutoregressiveDecoder(target, tokenizer, cm, max_new_tokens=12).decode(sample)
    sd = AASDEngine(
        target, head, tokenizer, cm, AASDEngineConfig(gamma=gamma, max_new_tokens=12)
    ).decode(sample)
    assert sd.token_ids == ar.token_ids


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100000), gamma=st.integers(1, 6))
def test_verify_outcome_invariants(seed, gamma):
    """speculative_verify: accepted is a prefix of the drafts; counts hold."""
    gen = np.random.default_rng(seed)
    vocab = 12
    draft_tokens = [int(t) for t in gen.integers(0, vocab, size=gamma)]
    draft_probs = gen.dirichlet(np.ones(vocab), size=gamma)
    target_logits = gen.standard_normal((gamma + 1, vocab))
    cfg = SamplerConfig(greedy=bool(gen.integers(2)))
    out = speculative_verify(draft_tokens, draft_probs, target_logits, cfg, gen)
    assert list(out.accepted) == draft_tokens[: out.n_accepted]
    assert out.tokens_emitted == out.n_accepted + 1
    assert out.all_accepted == (out.n_accepted == gamma)
    assert 0 <= out.next_token < vocab


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100000),
    temperature=st.floats(0.2, 3.0),
    top_k=st.integers(0, 10),
    top_p=st.floats(0.3, 1.0),
)
def test_logits_to_probs_always_distribution(seed, temperature, top_k, top_p):
    gen = np.random.default_rng(seed)
    logits = gen.standard_normal(10) * 5
    cfg = SamplerConfig(greedy=False, temperature=temperature, top_k=top_k, top_p=top_p)
    probs = logits_to_probs(logits, cfg)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs >= 0).all()
    # argmax survives every filtering scheme
    assert probs[np.argmax(logits)] > 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10000),
    appends=st.lists(st.integers(1, 4), min_size=1, max_size=5),
)
def test_kv_cache_append_truncate_roundtrip(seed, appends):
    """Appending then truncating back yields the original arrays."""
    gen = np.random.default_rng(seed)
    cache = KVCache(2)
    first = appends[0]
    for layer in range(2):
        cache.append(layer, gen.standard_normal((1, 2, first, 4)), gen.standard_normal((1, 2, first, 4)))
    cache.extend_positions(np.arange(first))
    snapshot = [cache.layer(i)[0].copy() for i in range(2)]

    total = first
    for n in appends[1:]:
        for layer in range(2):
            cache.append(layer, gen.standard_normal((1, 2, n, 4)), gen.standard_normal((1, 2, n, 4)))
        cache.extend_positions(np.arange(total, total + n))
        total += n

    cache.truncate(first)
    for i in range(2):
        assert np.array_equal(cache.layer(i)[0], snapshot[i])
    assert np.array_equal(cache.positions, np.arange(first))
