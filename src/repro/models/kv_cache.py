"""Per-layer KV cache with modality segments, backed by zero-copy arenas.

The cache stores post-RoPE key/value arrays per layer, plus the absolute
positions of the cached tokens and the boundaries of the vision / prompt /
generated segments.  AASD consumes the *last layer's* slice, and the
Figure 4 ablations mask individual segments.

Storage is an :class:`~repro.utils.arena.Arena` pair per layer (amortized
doubling along the token axis), so the decode hot path never pays O(T)
reallocation:

* ``append`` memcpys only the new tokens into preallocated slack,
* ``truncate`` (rejected-draft rollback) is a pointer decrement,
* ``keep_rows`` (a verified block's commit) is ``truncate`` when the
  accepted path is a prefix of the feed, and otherwise re-appends only
  the rows it moves,
* ``layer``/``last_layer``/``positions`` return cached zero-copy views,
  identity-stable until the next mutation.

:class:`repro.core.reference.ReferenceKVCache` keeps the old
concatenate-per-append implementation as the executable spec, and
``docs/performance.md`` has the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..utils.arena import MIN_CAPACITY, Arena, ArenaStats, total_footprint

__all__ = ["KVCache", "Segments"]


@dataclass(frozen=True)
class Segments:
    """Token index ranges (half-open) of the modality segments."""

    vision: Tuple[int, int]
    prompt: Tuple[int, int]

    @property
    def n_vision(self) -> int:
        return self.vision[1] - self.vision[0]

    @property
    def n_prompt(self) -> int:
        return self.prompt[1] - self.prompt[0]

    @property
    def prefix_len(self) -> int:
        return self.prompt[1]


class KVCache:
    """Append/truncate KV store for one generation session.

    Arrays have shape ``(B, H, T, Dh)`` per layer.  Appending grows T;
    truncation (used when draft tokens are rejected) shrinks it.  All data
    is plain numpy — the cache is an inference-side object and never carries
    gradients.

    Reads alias arena storage: arrays returned by :meth:`layer` /
    :meth:`last_layer` and the :attr:`positions` view are valid until the
    next ``append``/``truncate``/``keep_rows``; copy them to hold across
    mutations.
    """

    def __init__(self, n_layers: int) -> None:
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        self.n_layers = n_layers
        self._stats = ArenaStats()
        self._keys: List[Optional[Arena]] = [None] * n_layers
        self._values: List[Optional[Arena]] = [None] * n_layers
        self._positions = Arena((0,), axis=0, dtype=np.int64, stats=self._stats)
        self.segments: Optional[Segments] = None

    # ------------------------------------------------------------------
    @property
    def seq_len(self) -> int:
        """Tokens currently cached (0 when empty)."""
        return 0 if self._keys[0] is None else len(self._keys[0])

    @property
    def positions(self) -> np.ndarray:
        """Absolute positions of the cached tokens (zero-copy view)."""
        return self._positions.view()

    def layer(self, idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (K, V) views for layer ``idx`` (no copy)."""
        k, v = self._keys[idx], self._values[idx]
        if k is None or v is None:
            raise ShapeError(f"layer {idx} cache is empty")
        return k.view(), v.view()

    def last_layer(self) -> Tuple[np.ndarray, np.ndarray]:
        """The slice AASD's speculating module consumes."""
        return self.layer(self.n_layers - 1)

    # ------------------------------------------------------------------
    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append new-token K/V ``(B, H, Tnew, Dh)`` to one layer."""
        k = np.asarray(k)
        v = np.asarray(v)
        if k.shape != v.shape:
            raise ShapeError(f"K/V shape mismatch: {k.shape} vs {v.shape}")
        if k.ndim != 4:
            raise ShapeError(f"expected (B, H, T, Dh) K/V, got {k.shape}")
        arena_k = self._keys[layer]
        if arena_k is None:
            # sized from this first append (the prefill), so it lands
            # without relocating a MIN_CAPACITY buffer it just allocated
            item = (k.shape[0], k.shape[1], 0, k.shape[3])
            rows = max(k.shape[2], MIN_CAPACITY)
            arena_k = Arena(item, axis=2, dtype=k.dtype, stats=self._stats, capacity=rows)
            arena_v = Arena(item, axis=2, dtype=v.dtype, stats=self._stats, capacity=rows)
            self._keys[layer] = arena_k
            self._values[layer] = arena_v
        else:
            arena_v = self._values[layer]
        try:
            arena_k.append(k)
            arena_v.append(v)
        except ShapeError as exc:
            raise ShapeError(
                f"append shape {k.shape} incompatible with cache "
                f"(B={arena_k.view().shape[0]}, H={arena_k.view().shape[1]}, "
                f"T={len(arena_k)}, Dh={arena_k.view().shape[3]})"
            ) from exc

    def extend_positions(self, positions: np.ndarray) -> None:
        """Record absolute positions for tokens just appended to all layers."""
        self._positions.append(np.asarray(positions, dtype=np.int64))

    def truncate(self, new_len: int) -> None:
        """Drop cached entries beyond ``new_len`` (rejected draft rollback).

        With arena storage this is a pointer decrement per layer — no
        array data moves.
        """
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
                self._keys[i].truncate(new_len)
                self._values[i].truncate(new_len)
        self._positions.truncate(min(new_len, len(self._positions)))

    def keep_rows(self, start: int, rows: np.ndarray) -> None:
        """Keep rows ``start + rows`` right after the first ``start``; drop the rest.

        The commit of a verified block: ``start`` is the block's anchor
        row and ``rows`` (ascending, beginning at 0) are the fed rows of
        the anchor and the accepted root path.  A prefix of the feed —
        every chain — is :meth:`truncate`, and moves no data; any other
        path moves only the rows after its leading in-place run.
        """
        n = len(rows)
        if rows[-1] == n - 1:
            self.truncate(start + n)
            return
        # ascending from 0, so the rows already in place are a leading run
        stay = int(np.count_nonzero(rows == np.arange(n)))
        moved = start + np.asarray(rows[stay:], dtype=np.int64)
        kept = [tuple(a[:, :, moved, :] for a in self.layer(i)) for i in range(self.n_layers)]
        positions = self.positions[moved]
        self.truncate(start + stay)
        for layer, (k, v) in enumerate(kept):
            self.append(layer, k, v)
        self.extend_positions(positions)

    def set_segments(self, n_vision: int, n_prompt: int) -> None:
        """Mark the vision/prompt boundaries right after prefill."""
        self.segments = Segments(vision=(0, n_vision), prompt=(n_vision, n_vision + n_prompt))

    # ------------------------------------------------------------------
    def next_position(self) -> int:
        """Absolute position the next token should occupy."""
        pos = self._positions.view()
        return 0 if pos.size == 0 else int(pos[-1]) + 1

    def arena_stats(self) -> ArenaStats:
        """Copy/growth accounting aggregated over this cache's arenas."""
        return self._stats

    def footprint(self) -> Tuple[int, int]:
        """``(reserved, live)`` bytes of every layer and the positions."""
        return total_footprint([*self._keys, *self._values, self._positions])
