"""AASD draft head: config validation and the train/inference alignment
property that is the paper's core claim."""

import numpy as np
import pytest

from repro.core.draft_head import AASDDraftHead, DraftHeadConfig
from repro.core.hybrid_cache import HybridKVCache
from repro.errors import ConfigError, ShapeError
from repro.models.config import LlamaConfig
from repro.models.llama import MiniLlama
from repro.nn.tensor import no_grad


@pytest.fixture()
def config():
    return DraftHeadConfig(
        vocab_size=50, dim=24, n_heads=2, mlp_hidden=32,
        n_vision_tokens=6, k_compressed=3,
    )


@pytest.fixture()
def head(config, rng):
    return AASDDraftHead(config, rng=rng)


def fake_target_kv(rng, n_total, heads=2, dh=12):
    k = rng.standard_normal((1, heads, n_total, dh)).astype(np.float32)
    v = rng.standard_normal((1, heads, n_total, dh)).astype(np.float32)
    return k, v


class TestConfig:
    def test_for_target_matches_geometry(self):
        llama = LlamaConfig(vocab_size=77, dim=96, n_heads=6)
        cfg = DraftHeadConfig.for_target(llama, n_vision_tokens=36)
        assert cfg.dim == 96
        assert cfg.n_heads == 6
        assert cfg.vocab_size == 77
        assert cfg.head_dim == llama.head_dim

    def test_invalid_dim_heads(self):
        with pytest.raises(ConfigError):
            DraftHeadConfig(vocab_size=10, dim=10, n_heads=3)

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            DraftHeadConfig(vocab_size=10, dim=24, n_heads=2, n_vision_tokens=6, k_compressed=7)

    def test_projector_absent_when_disabled(self, rng):
        cfg = DraftHeadConfig(
            vocab_size=10, dim=24, n_heads=2, n_vision_tokens=6,
            use_kv_projector=False,
        )
        assert AASDDraftHead(cfg, rng=rng).projector is None

    def test_projector_absent_without_target_kv(self, rng):
        cfg = DraftHeadConfig(
            vocab_size=10, dim=24, n_heads=2, n_vision_tokens=6, k_compressed=3,
            use_target_kv=False,
        )
        assert AASDDraftHead(cfg, rng=rng).projector is None


class TestInitFromTarget:
    def test_copies_embedding(self, head, rng):
        llama = MiniLlama(LlamaConfig(vocab_size=50, dim=24, n_heads=2, n_layers=1, mlp_hidden=32), rng=rng)
        head.init_from_target(llama)
        assert np.array_equal(head.embed.weight.data, llama.embed.weight.data)

    def test_shape_mismatch_raises(self, head, rng):
        llama = MiniLlama(LlamaConfig(vocab_size=49, dim=24, n_heads=2, n_layers=1, mlp_hidden=32), rng=rng)
        with pytest.raises(ShapeError):
            head.init_from_target(llama)


class TestTrainInferenceAlignment:
    """T-D Attention training must reproduce inference states exactly."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_depth_s_alignment(self, head, rng, s):
        n_vis, t_text = 6, 7
        text_ids = rng.integers(0, 50, size=(1, t_text))
        k_full, v_full = fake_target_kv(rng, n_vis + t_text)
        k_vis, v_vis = k_full[:, :, :n_vis], v_full[:, :, :n_vis]
        k_txt, v_txt = k_full[:, :, n_vis:], v_full[:, :, n_vis:]
        i = 4  # query position to check (must satisfy i >= s-1)

        with no_grad():
            train_logits = head.forward_train(
                text_ids, k_txt, v_txt, k_vis, v_vis, s=s, position_offset=n_vis
            )
            kc, vc = head.compress_vision(k_vis, v_vis)
            hybrid = HybridKVCache(2, 12, vision=(kc.data, vc.data))
            n_ctx = i - s + 1
            hybrid.append_context(k_txt[:, :, :n_ctx], v_txt[:, :, :n_ctx])
            logits = None
            for step in range(s):
                tok = int(text_ids[0, i - s + 1 + step])
                logits = head.step(tok, n_vis + i - s + 1 + step, hybrid)
        assert np.abs(train_logits.data[0, i] - logits).max() < 1e-3

    def test_no_target_kv_variant_is_causal_lm(self, rng):
        cfg = DraftHeadConfig(vocab_size=50, dim=24, n_heads=2, use_target_kv=False, n_vision_tokens=6, k_compressed=3)
        head = AASDDraftHead(cfg, rng=rng)
        ids = rng.integers(0, 50, size=(1, 5))
        with no_grad():
            logits = head.forward_train(ids, None, None, None, None, position_offset=6)
            # inference: self-encode the first 4 tokens as context, step on token 4
            hybrid = HybridKVCache(2, 12)
            k, v = head.self_encode(ids[0, :4], 6 + np.arange(4))
            hybrid.append_context(k, v)
            step_logits = head.step(int(ids[0, 4]), 10, hybrid)
        assert np.abs(logits.data[0, 4] - step_logits).max() < 1e-3

    def test_use_target_kv_requires_kv(self, head, rng):
        with pytest.raises(ShapeError):
            head.forward_train(np.array([[1, 2]]), None, None, None, None)

    def test_build_context_requires_target_kv_mode(self, rng):
        cfg = DraftHeadConfig(vocab_size=50, dim=24, n_heads=2, use_target_kv=False, n_vision_tokens=6, k_compressed=3)
        head = AASDDraftHead(cfg, rng=rng)
        with pytest.raises(ShapeError):
            head.build_context(None)


class TestStep:
    def test_step_appends_draft_kv(self, head, rng):
        k_vis, v_vis = fake_target_kv(rng, 6)
        kc, vc = head.compress_vision(k_vis, v_vis)
        hybrid = HybridKVCache(2, 12, vision=(kc.data, vc.data))
        with no_grad():
            head.step(5, 10, hybrid)
            head.step(7, 11, hybrid)
        assert hybrid.draft_len == 2

    def test_logits_shape(self, head, rng):
        hybrid = HybridKVCache(2, 12)
        with no_grad():
            k, v = head.self_encode(np.array([1, 2]), np.array([6, 7]))
            hybrid.append_context(k, v)
            logits = head.step(3, 8, hybrid)
        assert logits.shape == (50,)

    def test_compress_vision_passthrough_without_projector(self, rng):
        cfg = DraftHeadConfig(
            vocab_size=50, dim=24, n_heads=2, n_vision_tokens=6, use_kv_projector=False
        )
        head = AASDDraftHead(cfg, rng=rng)
        k, v = fake_target_kv(rng, 6)
        kc, vc = head.compress_vision(k, v)
        assert np.array_equal(kc.data, k)
        assert kc.shape[2] == 6


class TestTrainability:
    def test_loss_decreases(self, head, rng):
        """A few Adam steps on fixed data must reduce the CE loss."""
        from repro.nn import functional as F
        from repro.nn.optim import Adam
        n_vis, t = 6, 8
        text_ids = rng.integers(0, 50, size=(2, t))
        targets = rng.integers(0, 50, size=(2, t))
        k_full, v_full = fake_target_kv(rng, n_vis + t)
        args = (
            text_ids,
            np.repeat(k_full[:, :, n_vis:], 2, axis=0),
            np.repeat(v_full[:, :, n_vis:], 2, axis=0),
            np.repeat(k_full[:, :, :n_vis], 2, axis=0),
            np.repeat(v_full[:, :, :n_vis], 2, axis=0),
        )
        opt = Adam(head.parameters(), lr=5e-3)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            logits = head.forward_train(*args, s=1, position_offset=n_vis)
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5
