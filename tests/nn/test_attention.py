"""Multi-head attention: masks, shapes, causality, gradients."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadAttention, causal_mask, merge_heads, split_heads
from repro.nn.rope import RotaryEmbedding
from repro.nn.tensor import Tensor


class TestCausalMask:
    def test_lower_triangular(self):
        blocked = causal_mask(np.arange(4), np.arange(4))
        assert np.array_equal(blocked, np.triu(np.ones((4, 4), bool), k=1))

    def test_offset_queries(self):
        blocked = causal_mask(np.array([3, 4]), np.arange(5))
        assert not blocked[0, :4].any()
        assert blocked[0, 4]
        assert not blocked[1].any()

    def test_nothing_visible_for_future_keys(self):
        blocked = causal_mask(np.array([0]), np.array([5, 6]))
        assert blocked.all()


class TestHeadReshape:
    def test_split_merge_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 12)))
        assert np.allclose(merge_heads(split_heads(x, 3)).data, x.data)

    def test_split_rejects_bad_heads(self, rng):
        with pytest.raises(ValueError):
            split_heads(Tensor(rng.standard_normal((1, 2, 10))), 3)


class TestMultiHeadAttention:
    def make(self, rng, dim=24, heads=4):
        rope = RotaryEmbedding(dim // heads)
        return MultiHeadAttention(dim, heads, rope=rope, rng=rng)

    def test_bad_dim_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng=rng)

    def test_output_shape_and_kv(self, rng):
        attn = self.make(rng)
        x = Tensor(rng.standard_normal((2, 6, 24)))
        assert attn(x, positions=np.arange(6)).shape == (2, 6, 24)
        q, k, v = attn.project_qkv(x, np.arange(6))
        assert q.shape == k.shape == v.shape == (2, 4, 6, 6)

    def test_causality(self, rng):
        """Perturbing a future token must not change earlier outputs."""
        attn = self.make(rng)
        x0 = rng.standard_normal((1, 6, 24)).astype(np.float32)
        x1 = x0.copy()
        x1[0, 5] += 10.0
        out0 = attn(Tensor(x0), positions=np.arange(6))
        out1 = attn(Tensor(x1), positions=np.arange(6))
        assert np.allclose(out0.data[:, :5], out1.data[:, :5], atol=1e-5)

    def test_attend_uniform_when_keys_equal(self, rng):
        q = Tensor(rng.standard_normal((1, 1, 1, 4)))
        k = Tensor(np.zeros((1, 1, 3, 4), dtype=np.float32))
        v = Tensor(rng.standard_normal((1, 1, 3, 4)))
        out = MultiHeadAttention.attend(q, k, v)
        assert np.allclose(out.data[0, 0, 0], v.data[0, 0].mean(axis=0), atol=1e-5)

    def test_gradients_reach_all_projections(self, rng):
        attn = self.make(rng)
        x = Tensor(rng.standard_normal((1, 4, 24)))
        attn(x, positions=np.arange(4)).sum().backward()
        for layer in (attn.wq, attn.wk, attn.wv, attn.wo):
            assert layer.weight.grad is not None
