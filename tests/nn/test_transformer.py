"""SwiGLU and DecoderBlock tests."""

import numpy as np

from repro.nn.rope import RotaryEmbedding
from repro.nn.tensor import Tensor
from repro.nn.transformer import DecoderBlock, SwiGLU


class TestSwiGLU:
    def test_shape(self, rng):
        mlp = SwiGLU(8, 16, rng=rng)
        assert mlp(Tensor(rng.standard_normal((2, 3, 8)))).shape == (2, 3, 8)

    def test_zero_input_gives_zero(self, rng):
        mlp = SwiGLU(8, 16, rng=rng)
        out = mlp(Tensor(np.zeros((1, 1, 8)))).data
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_param_count(self, rng):
        mlp = SwiGLU(8, 16, rng=rng)
        assert mlp.num_parameters() == 8 * 16 * 3


class TestDecoderBlock:
    def test_forward_and_kv(self, rng):
        rope = RotaryEmbedding(8)
        block = DecoderBlock(32, 4, 64, rope=rope, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 32)))
        assert block(x, positions=np.arange(5)).shape == (2, 5, 32)
        _, k, _ = block.attn.project_qkv(block.attn_norm(x), np.arange(5))
        assert k.shape == (2, 4, 5, 8)

    def test_residual_path(self, rng):
        """Output stays close to input when sublayer weights are zeroed."""
        rope = RotaryEmbedding(8)
        block = DecoderBlock(32, 4, 64, rope=rope, rng=rng)
        block.attn.wo.weight.data[:] = 0.0
        block.mlp.down.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 4, 32)))
        h = block(x, positions=np.arange(4))
        assert np.allclose(h.data, x.data, atol=1e-6)

    def test_gradients_flow_through_block(self, rng):
        rope = RotaryEmbedding(8)
        block = DecoderBlock(32, 4, 64, rope=rope, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 32)), requires_grad=True)
        h = block(x, positions=np.arange(4))
        (h * h).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())
