"""Multi-head attention with KV-cache support.

The attention layer here is the one used by both the target MLLM backbone and
the AASD draft head, so it exposes exactly the hooks the paper's method
needs:

* incremental decoding against cached key/value arrays,
* access to the per-layer K/V produced for new tokens (the target model's
  last-layer KV is what the AASD speculating module consumes),
* arbitrary boolean attention masks in addition to the implicit causal rule.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .layers import Linear
from .module import Module
from .rope import RotaryEmbedding, apply_rope
from .tensor import Tensor, concat, is_grad_enabled, matmul_data

__all__ = [
    "MultiHeadAttention",
    "attend_blocks",
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
    """Scaled dot-product attention on raw arrays (inference fast path).

    Exactly the op sequence of :meth:`MultiHeadAttention.attend` — same
    numpy calls in the same order, so the result is bitwise identical —
    minus the autograd graph nodes.  Decode paths call attention once per
    request per layer per round, which makes those five skipped ``Tensor``
    allocations a measurable wall-clock win; the packed serving kernels
    (``docs/kernels.md``) call this directly on cache views.
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


def attend_blocks(q: Tensor, blocks: Sequence[Tuple[Tensor, Tensor]]) -> Tensor:
    """Attention over ``(K, V)`` key blocks under one softmax, without joining them.

    T-D Attention's form (paper Eq. 12-13): each block is scored
    separately, one softmax runs over the joined score rows, and each
    block's slice of the weights multiplies its own ``V`` — the sum is
    attention over the blocks' concatenation, but no K or V is ever
    concatenated.  No mask: every key is attended.
    """
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = concat([q @ k.swapaxes(-1, -2) for k, _ in blocks], axis=-1) * scale
    weights = F.softmax(scores, axis=-1)
    out, start = None, 0
    for _, v in blocks:
        end = start + v.shape[2]
        part = weights[..., start:end] @ v
        out = part if out is None else out + part
        start = end
    return out


def attend_blocks_data(q: np.ndarray,
                       blocks: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """:func:`attend_blocks` on raw arrays: the same ops in the same order, bitwise."""
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
    """Causal multi-head self-attention with RoPE and optional KV cache."""

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

        When no gradient can flow (inference, or no input requires grad)
        the same numpy ops run in the same order without the autograd
        wrappers — bitwise-identical output, but decode-path attention is
        called once per request per layer per round, so skipping the
        five intermediate graph nodes is a real wall-clock win.
        """
        scale = 1.0 / np.sqrt(q.shape[-1])
        track = is_grad_enabled() and (
            q.requires_grad or k.requires_grad or v.requires_grad
        )
        if not track:
            return Tensor(attend_data(q.data, k.data, v.data, blocked))
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if blocked is not None:
            scores = scores.masked_fill(blocked, -1e9)
        weights = F.softmax(scores, axis=-1)
        return weights @ v

    def forward(
        self,
        x: Tensor,
        positions: np.ndarray,
        past_kv: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        key_positions: Optional[np.ndarray] = None,
        extra_blocked: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Causal self-attention over new tokens plus an optional KV cache.

        Parameters
        ----------
        x:
            New-token activations ``(B, T, D)``.
        positions:
            Absolute positions of the T new tokens (used for RoPE and the
            causal rule).
        past_kv:
            Cached ``(K, V)`` arrays of shape ``(B, H, Tpast, Dh)``; treated
            as constants (no gradient flows into the cache).
        key_positions:
            Absolute positions of the cached keys; defaults to
            ``arange(Tpast)``.
        extra_blocked:
            Extra boolean blocking mask broadcastable to ``(Tq, Tk_total)``,
            combined (OR) with the causal mask.  Used by the ablations that
            hide the image or text KV segments.

        Returns
        -------
        (output, k_new, v_new):
            ``output`` is ``(B, T, D)`` after the output projection;
            ``k_new``/``v_new`` are the fresh per-head K/V for the new tokens
            (post-RoPE), ready to append to a cache.
        """
        positions = np.asarray(positions, dtype=np.int64)
        q, k_new, v_new = self.project_qkv(x, positions)

        if past_kv is not None:
            past_k, past_v = past_kv
            k_all = concat([Tensor(np.asarray(past_k)), k_new], axis=2)
            v_all = concat([Tensor(np.asarray(past_v)), v_new], axis=2)
            n_past = np.asarray(past_k).shape[2]
            if key_positions is None:
                key_positions = np.arange(n_past, dtype=np.int64)
            all_key_pos = np.concatenate([np.asarray(key_positions, dtype=np.int64), positions])
        else:
            k_all, v_all = k_new, v_new
            all_key_pos = positions

        blocked = causal_mask(positions, all_key_pos)
        if extra_blocked is not None:
            blocked = blocked | np.asarray(extra_blocked, dtype=bool)

        out = self.attend(q, k_all, v_all, blocked=blocked)
        return self.wo(merge_heads(out)), k_new, v_new
