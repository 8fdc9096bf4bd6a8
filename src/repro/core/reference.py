"""Concatenate-based reference caches: the executable pre-arena spec.

These are ``np.concatenate``-on-every-append implementations of
:class:`~repro.models.kv_cache.KVCache` (the original, kept verbatim) and
of :class:`~repro.core.hybrid_cache.HybridKVCache` (its draft lane, and
copies on every ``gather``) — O(T) per appended token, O(T^2) per
sequence — kept for three jobs:

* **Property tests** — random interleavings of append / truncate /
  rollback / gather on the arena-backed caches must stay
  element-identical to these (``tests/core/test_kv_arena_properties.py``).
* **Decode equivalence** — greedy decode (solo and batched serving) with
  the reference caches swapped in must emit token-identical output
  (``tests/core/test_arena_equivalence.py``).
* **Benchmark baseline** — ``benchmarks/bench_kv_arena.py`` measures the
  arena's speedup against exactly this behaviour.

Production code must never import these; the engine and models always use
the arena-backed classes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..models.kv_cache import Segments

__all__ = ["ReferenceKVCache", "ReferenceHybridKVCache"]

class ReferenceKVCache:
    """Per-layer KV store that reallocates on every append (the old way)."""

    def __init__(self, n_layers: int) -> None:
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        self.n_layers = n_layers
        self._keys: List[Optional[np.ndarray]] = [None] * n_layers
        self._values: List[Optional[np.ndarray]] = [None] * n_layers
        self.positions: np.ndarray = np.empty((0,), dtype=np.int64)
        self.segments: Optional[Segments] = None

    @property
    def seq_len(self) -> int:
        """Tokens currently cached (0 when empty)."""
        return 0 if self._keys[0] is None else self._keys[0].shape[2]

    def layer(self, idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (K, V) for layer ``idx``."""
        k, v = self._keys[idx], self._values[idx]
        if k is None or v is None:
            raise ShapeError(f"layer {idx} cache is empty")
        return k, v

    def last_layer(self) -> Tuple[np.ndarray, np.ndarray]:
        """The slice AASD's speculating module consumes."""
        return self.layer(self.n_layers - 1)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append new-token K/V ``(B, H, Tnew, Dh)`` via full concatenate."""
        k = np.asarray(k)
        v = np.asarray(v)
        if k.shape != v.shape:
            raise ShapeError(f"K/V shape mismatch: {k.shape} vs {v.shape}")
        if self._keys[layer] is None:
            self._keys[layer] = k.copy()
            self._values[layer] = v.copy()
        else:
            if k.shape[:2] != self._keys[layer].shape[:2] or k.shape[3] != self._keys[layer].shape[3]:
                raise ShapeError(
                    f"append shape {k.shape} incompatible with cache {self._keys[layer].shape}"
                )
            self._keys[layer] = np.concatenate([self._keys[layer], k], axis=2)
            self._values[layer] = np.concatenate([self._values[layer], v], axis=2)

    def extend_positions(self, positions: np.ndarray) -> None:
        """Record absolute positions for tokens just appended to all layers."""
        self.positions = np.concatenate(
            [self.positions, np.asarray(positions, dtype=np.int64)]
        )

    def truncate(self, new_len: int) -> None:
        """Drop cached entries beyond ``new_len`` via slice-copy."""
        if new_len > self.seq_len:
            raise ShapeError(f"cannot truncate cache of len {self.seq_len} to {new_len}")
        if new_len == self.seq_len:
            return
        prefix = self.segments.prefix_len if self.segments is not None else 0
        if new_len < prefix:
            raise ShapeError(
                f"truncation to {new_len} would cut into the prefill prefix ({prefix})"
            )
        for i in range(self.n_layers):
            if self._keys[i] is not None:
                self._keys[i] = self._keys[i][:, :, :new_len, :]
                self._values[i] = self._values[i][:, :, :new_len, :]
        self.positions = self.positions[:new_len]

    def keep_rows(self, start: int, rows: np.ndarray) -> None:
        """Keep rows ``start + rows`` after the first ``start`` via index-copy."""
        keep = np.concatenate([np.arange(start), start + np.asarray(rows, dtype=np.int64)])
        for i in range(self.n_layers):
            if self._keys[i] is not None:
                self._keys[i] = self._keys[i][:, :, keep, :]
                self._values[i] = self._values[i][:, :, keep, :]
        self.positions = self.positions[keep]

    def set_segments(self, n_vision: int, n_prompt: int) -> None:
        """Mark the vision/prompt boundaries right after prefill."""
        self.segments = Segments(vision=(0, n_vision), prompt=(n_vision, n_vision + n_prompt))

    def next_position(self) -> int:
        """Absolute position the next token should occupy."""
        return 0 if self.positions.size == 0 else int(self.positions[-1]) + 1


class ReferenceHybridKVCache:
    """The hybrid store's spec: every call rebuilds its arrays.

    Same constructor and blocks as :class:`~repro.core.hybrid_cache.HybridKVCache`;
    the draft lane (and an owned source, a :class:`ReferenceKVCache`)
    grows by concatenation and :meth:`gather` returns fresh copies.
    """

    def __init__(self, n_heads: int, head_dim: int, source=None, first_row: int = 0,
                 vision: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.owns_source = source is None
        self.source = ReferenceKVCache(1) if source is None else source
        self.layer = self.source.n_layers - 1
        self.first_row = first_row
        self.vision = vision
        self.clear_draft()

    @property
    def context_len(self) -> int:
        """Keys before the draft lane: the vision block plus the source's rows."""
        n_vision = 0 if self.vision is None else self.vision[0].shape[2]
        return n_vision + self.source.seq_len - self.first_row

    @property
    def draft_len(self) -> int:
        """Rows in the block-local draft lane (cleared every block)."""
        return self._draft_k.shape[2]

    @property
    def seq_len(self) -> int:
        """Total attended KV length: context plus the draft lane."""
        return self.context_len + self.draft_len

    def _check(self, k: np.ndarray, v: np.ndarray) -> None:
        """Reject K/V that is not one ``(1, n_heads, T, head_dim)`` pair."""
        if np.shape(k) != np.shape(v):
            raise ShapeError(f"K/V mismatch: {np.shape(k)} vs {np.shape(v)}")
        shape = np.shape(k)
        if len(shape) != 4 or shape[:2] != (1, self.n_heads) or shape[3] != self.head_dim:
            raise ShapeError(f"expected (1, {self.n_heads}, T, {self.head_dim}), got {shape}")

    def append_context(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append the head's own context K/V to the owned source."""
        if not self.owns_source:
            raise ShapeError("append_context on a store reading the target's cache")
        if self.draft_len:
            raise ShapeError(
                f"append_context with {self.draft_len} live draft rows; call clear_draft first"
            )
        self._check(k, v)
        self.source.append(0, k, v)

    def append_draft(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append draft K/V by concatenating the whole lane."""
        self._check(k, v)
        self._draft_k = np.concatenate([self._draft_k, k], axis=2)
        self._draft_v = np.concatenate([self._draft_v, v], axis=2)

    def clear_draft(self) -> None:
        """Drop the draft lane (called after every verify)."""
        shape = (1, self.n_heads, 0, self.head_dim)
        self._draft_k = np.empty(shape, dtype=np.float64)
        self._draft_v = np.empty(shape, dtype=np.float64)

    def gather(self, disable_image_kv: bool = False,
               disable_text_kv: bool = False) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The attended ``(K, V)`` blocks, each a fresh copy: vision, context, draft lane."""
        blocks = []
        if self.vision is not None and not disable_image_kv:
            blocks.append(self.vision)
        if self.source.seq_len and not disable_text_kv:
            k, v = self.source.layer(self.layer)
            blocks.append((k[:, :, self.first_row:, :], v[:, :, self.first_row:, :]))
        blocks.append((self._draft_k, self._draft_v))
        return [(k.copy(), v.copy()) for k, v in blocks]
