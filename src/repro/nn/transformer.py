"""Transformer building blocks: SwiGLU MLP and pre-norm decoder block."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .attention import MultiHeadAttention
from .layers import Linear
from .module import Module
from .normalization import RMSNorm
from .rope import RotaryEmbedding
from .tensor import Tensor

__all__ = ["SwiGLU", "DecoderBlock"]


class SwiGLU(Module):
    """LLaMA-style gated MLP: ``down(silu(gate(x)) * up(x))``."""

    def __init__(self, dim: int, hidden_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.gate = Linear(dim, hidden_dim, bias=False, rng=gen)
        self.up = Linear(dim, hidden_dim, bias=False, rng=gen)
        self.down = Linear(hidden_dim, dim, bias=False, rng=gen)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(F.silu(self.gate(x)) * self.up(x))


class DecoderBlock(Module):
    """Pre-norm decoder block: RMSNorm -> attn -> +res; RMSNorm -> MLP -> +res."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        mlp_hidden: int,
        rope: Optional[RotaryEmbedding] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.attn_norm = RMSNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rope=rope, rng=gen)
        self.mlp_norm = RMSNorm(dim)
        self.mlp = SwiGLU(dim, mlp_hidden, rng=gen)

    def forward(self, x: Tensor, positions: np.ndarray) -> Tensor:
        """The block's output for ``x`` at absolute ``positions``."""
        x = x + self.attn(self.attn_norm(x), positions)
        return x + self.mlp(self.mlp_norm(x))
