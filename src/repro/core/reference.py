"""Concatenate-based reference caches: the executable pre-arena spec.

These are the original ``np.concatenate``-on-every-append implementations
of :class:`~repro.models.kv_cache.KVCache` and
:class:`~repro.core.hybrid_cache.HybridKVCache`, kept verbatim (O(T) per
appended token, O(T^2) per sequence) for three jobs:

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

SEGMENT_VISION = 0
SEGMENT_TEXT = 1


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
    """Hybrid context+draft KV store rebuilt by concatenate on every call."""

    def __init__(self, n_heads: int, head_dim: int) -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        shape = (1, n_heads, 0, head_dim)
        self._ctx_k = np.empty(shape, dtype=np.float32)
        self._ctx_v = np.empty(shape, dtype=np.float32)
        self._ctx_pos = np.empty((0,), dtype=np.int64)
        self._ctx_seg = np.empty((0,), dtype=np.int8)
        self._draft_k = np.empty(shape, dtype=np.float32)
        self._draft_v = np.empty(shape, dtype=np.float32)
        self._draft_pos = np.empty((0,), dtype=np.int64)

    @property
    def context_len(self) -> int:
        """Entries in the fixed context store (projected vision + text KV)."""
        return self._ctx_k.shape[2]

    @property
    def draft_len(self) -> int:
        """Entries in the block-local draft store (cleared every block)."""
        return self._draft_k.shape[2]

    @property
    def seq_len(self) -> int:
        """Total attended KV length: context plus current draft segment."""
        return self.context_len + self.draft_len

    def _check(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        positions = np.asarray(positions, dtype=np.int64)
        if k.shape != v.shape:
            raise ShapeError(f"K/V mismatch: {k.shape} vs {v.shape}")
        if k.ndim != 4 or k.shape[0] != 1 or k.shape[1] != self.n_heads or k.shape[3] != self.head_dim:
            raise ShapeError(
                f"expected (1, {self.n_heads}, T, {self.head_dim}), got {k.shape}"
            )
        if positions.shape != (k.shape[2],):
            raise ShapeError(
                f"positions shape {positions.shape} != ({k.shape[2]},)"
            )
        return k, v, positions

    def append_context(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray, segment: int) -> None:
        """Append target-provided (or projected) KV to the context store."""
        if segment not in (SEGMENT_VISION, SEGMENT_TEXT):
            raise ShapeError(f"unknown segment tag {segment}")
        k, v, positions = self._check(k, v, positions)
        self._ctx_k = np.concatenate([self._ctx_k, k], axis=2)
        self._ctx_v = np.concatenate([self._ctx_v, v], axis=2)
        self._ctx_pos = np.concatenate([self._ctx_pos, positions])
        self._ctx_seg = np.concatenate(
            [self._ctx_seg, np.full(k.shape[2], segment, dtype=np.int8)]
        )

    def append_draft(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Append the draft head's own KV for freshly drafted tokens."""
        k, v, positions = self._check(k, v, positions)
        self._draft_k = np.concatenate([self._draft_k, k], axis=2)
        self._draft_v = np.concatenate([self._draft_v, v], axis=2)
        self._draft_pos = np.concatenate([self._draft_pos, positions])

    def clear_draft(self) -> None:
        """Drop the block-local draft KV (called after every verify)."""
        shape = (1, self.n_heads, 0, self.head_dim)
        self._draft_k = np.empty(shape, dtype=np.float32)
        self._draft_v = np.empty(shape, dtype=np.float32)
        self._draft_pos = np.empty((0,), dtype=np.int64)

    def gather(
        self,
        disable_image_kv: bool = False,
        disable_text_kv: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(K, V, key_positions, blocked)`` via full concatenation."""
        k = np.concatenate([self._ctx_k, self._draft_k], axis=2)
        v = np.concatenate([self._ctx_v, self._draft_v], axis=2)
        positions = np.concatenate([self._ctx_pos, self._draft_pos])
        blocked = np.zeros(k.shape[2], dtype=bool)
        if disable_image_kv:
            blocked[: self.context_len] |= self._ctx_seg == SEGMENT_VISION
        if disable_text_kv:
            blocked[: self.context_len] |= self._ctx_seg == SEGMENT_TEXT
        return k, v, positions, blocked

    def segment_counts(self) -> Tuple[int, int]:
        """(n_vision, n_text) context entries — used by cost accounting."""
        n_vision = int((self._ctx_seg == SEGMENT_VISION).sum())
        return n_vision, self.context_len - n_vision
