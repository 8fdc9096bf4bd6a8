"""Multi-head attention: the training layer and the raw inference kernels.

The attention layer here is the one used by both the target MLLM backbone and
the AASD draft head.  :class:`MultiHeadAttention` is the dense, causal
training forward; inference runs the raw-array kernels below
(:func:`attend_data` over a cache's view, :func:`attend_blocks_data`
over the draft head's key blocks), and a cache is an inference-side
object the ``Module`` layers never see.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .layers import Linear
from .module import Module
from .rope import RotaryEmbedding, apply_rope
from .tensor import Tensor, matmul_data

__all__ = [
    "MultiHeadAttention",
    "attend_blocks_data",
    "attend_data",
    "causal_mask",
    "split_heads",
    "merge_heads",
]


def attend_data(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    blocked: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scaled dot-product attention on raw arrays (the inference kernel).

    Exactly the op sequence of :meth:`MultiHeadAttention.attend` — same
    numpy calls in the same order, so the result is bitwise identical —
    minus the autograd graph nodes.  The inference forwards
    (``docs/kernels.md`` §5) call it on cache views.
    """
    scale = 1.0 / np.sqrt(q.shape[-1])
    # 0-d array, not a scalar: matches as_tensor(scale)'s dtype
    # promotion in the autograd path exactly
    scores = matmul_data(q, k.swapaxes(-1, -2)) * np.asarray(scale)
    if blocked is not None:
        # same masked value np.where would produce, without a new array
        np.copyto(scores, np.asarray(-1e9, dtype=scores.dtype), where=blocked)
    # in-place softmax: identical ufuncs in identical order, fewer
    # temporaries (attention runs once per request per layer per round)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return matmul_data(scores, v)


def attend_blocks_data(q: np.ndarray,
                       blocks: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Attention over ``(K, V)`` key blocks under one softmax, without joining them.

    T-D Attention's form (paper Eq. 12-13): each block is scored where it
    lives (``q @ K_bᵀ``), one softmax runs over the joined score rows, and
    each block's slice of the weights multiplies its own ``V`` — the sum is
    attention over the blocks' concatenation, but no K or V is ever
    concatenated.  No mask: every key is attended.  The draft head's
    inference step runs it on raw arrays.
    """
    # repro: allow[hotpath] -- joins the per-block score rows (heads x keys), never K or V
    scores = np.concatenate([matmul_data(q, k.swapaxes(-1, -2)) for k, _ in blocks], axis=-1)
    scores *= np.asarray(1.0 / np.sqrt(q.shape[-1]))
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out, start = None, 0
    for _, v in blocks:
        end = start + v.shape[2]
        part = matmul_data(scores[..., start:end], v)
        if out is None:
            out = part
        else:
            out += part
        start = end
    return out


def causal_mask(query_positions: np.ndarray, key_positions: np.ndarray) -> np.ndarray:
    """Boolean mask of shape ``(Tq, Tk)``; True marks *blocked* pairs.

    A query at absolute position ``i`` may attend to keys at positions
    ``<= i``.
    """
    q = np.asarray(query_positions).reshape(-1, 1)
    k = np.asarray(key_positions).reshape(1, -1)
    return k > q


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """``(B, T, D) -> (B, H, T, D/H)``."""
    b, t, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by n_heads {n_heads}")
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """``(B, H, T, Dh) -> (B, T, H*Dh)``."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


class MultiHeadAttention(Module):
    """Causal multi-head self-attention with RoPE (the dense training forward)."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rope: Optional[RotaryEmbedding] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.rope = rope
        gen = rng if rng is not None else np.random.default_rng()
        self.wq = Linear(dim, dim, bias=False, rng=gen)
        self.wk = Linear(dim, dim, bias=False, rng=gen)
        self.wv = Linear(dim, dim, bias=False, rng=gen)
        self.wo = Linear(dim, dim, bias=False, rng=gen)

    def project_qkv(
        self, x: Tensor, positions: np.ndarray
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Compute (q, k, v) heads for new tokens at absolute ``positions``.

        Shapes: x ``(B, T, D)`` -> each of q/k/v ``(B, H, T, Dh)``.  RoPE is
        applied to q and k when the layer owns a rotary table.
        """
        q = split_heads(self.wq(x), self.n_heads)
        k = split_heads(self.wk(x), self.n_heads)
        v = split_heads(self.wv(x), self.n_heads)
        if self.rope is not None:
            cos, sin = self.rope.tables(positions)
            q = apply_rope(q, cos, sin)
            k = apply_rope(k, cos, sin)
        return q, k, v

    @staticmethod
    def attend(
        q: Tensor,
        k: Tensor,
        v: Tensor,
        blocked: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Scaled dot-product attention; ``blocked`` marks disallowed pairs.

        ``blocked`` broadcasts against the score tensor ``(B, H, Tq, Tk)``.
        :func:`attend_data` is the same op sequence on raw arrays.
        """
        scale = 1.0 / np.sqrt(q.shape[-1])
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if blocked is not None:
            scores = scores.masked_fill(blocked, -1e9)
        weights = F.softmax(scores, axis=-1)
        return weights @ v

    def forward(self, x: Tensor, positions: np.ndarray) -> Tensor:
        """Causal self-attention over ``x`` ``(B, T, D)``; returns ``(B, T, D)``.

        ``positions`` are the tokens' absolute positions, used for RoPE
        and the causal rule.
        """
        positions = np.asarray(positions, dtype=np.int64)
        q, k, v = self.project_qkv(x, positions)
        out = self.attend(q, k, v, blocked=causal_mask(positions, positions))
        return self.wo(merge_heads(out))
