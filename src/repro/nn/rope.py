"""Rotary position embeddings (RoPE), as used by LLaMA.

RoPE rotates query/key head vectors by position-dependent angles so that the
dot product ``q_i . k_j`` depends on the relative offset ``i - j``.  The cache
of cos/sin tables is precomputed once per (head_dim, base) pair.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .tensor import Tensor, concat

__all__ = ["RotaryEmbedding", "apply_rope"]


class RotaryEmbedding:
    """Precomputed cos/sin tables for RoPE.

    The table grows lazily: asking for positions beyond the current capacity
    doubles the table, so callers never need to guess a maximum length.
    """

    def __init__(self, head_dim: int, base: float = 10000.0, initial_len: int = 256) -> None:
        if head_dim % 2 != 0:
            raise ValueError(f"RoPE head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.base = base
        self._cos = np.empty((0, head_dim), dtype=np.float32)
        self._sin = np.empty((0, head_dim), dtype=np.float32)
        self._grow(initial_len)

    def _grow(self, min_len: int) -> None:
        length = max(min_len, 2 * max(1, self._cos.shape[0]))
        half = self.head_dim // 2
        inv_freq = 1.0 / (self.base ** (np.arange(0, half, dtype=np.float64) / half))
        t = np.arange(length, dtype=np.float64)
        freqs = np.outer(t, inv_freq)  # (length, half)
        # repro: allow[hotpath] -- table doubling: amortized O(log T) growths, not per-step
        emb = np.concatenate([freqs, freqs], axis=-1)
        self._cos = np.cos(emb).astype(np.float32)
        self._sin = np.sin(emb).astype(np.float32)

    def tables(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (cos, sin) tables gathered at ``positions``."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and positions.max() >= self._cos.shape[0]:
            self._grow(int(positions.max()) + 1)
        return self._cos[positions], self._sin[positions]


def _rotate_half(x: Tensor) -> Tensor:
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    return concat([-x2, x1], axis=-1)


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Apply the rotary transform to ``x`` of shape ``(..., T, head_dim)``.

    ``cos``/``sin`` must have shape ``(T, head_dim)`` (already gathered at the
    absolute positions of the T entries) and broadcast over leading dims.
    """
    return x * Tensor(cos) + _rotate_half(x) * Tensor(sin)
