"""Hybrid KV cache: target-provided context + the draft head's own KV.

During AASD inference the speculating module attends over two stores:

* the **context**: compressed vision KV plus the target model's last-layer
  text KV for every committed token except the newest (grows after each
  verify step, fed by the verification forward's KV by-product);
* the **draft segment**: the head's own KV for tokens drafted in the
  current block (cleared after each verify).

Context entries carry a segment tag (vision/text) so the Figure 4 ablations
can mask a modality at attention time.

Storage is a single :class:`~repro.utils.arena.Arena` lane pair per array
with the context occupying ``[0, context_len)`` and the draft segment the
tail ``[context_len, seq_len)``.  Context is appended only while the
draft segment is empty (the engine clears it after every verify, and
``append_context`` enforces it), so both lanes share one buffer, and
the old per-``gather`` rebuild — five ``np.concatenate`` calls over the
*entire* context on every draft step — becomes a cached zero-copy view:

* ``append_draft`` memcpys one token into slack,
* ``clear_draft`` is a pointer decrement,
* ``gather`` returns cached views plus a memoized blocked-mask row,
  invalidated only by mutation.

:class:`repro.core.reference.ReferenceHybridKVCache` preserves the old
implementation as the executable spec the property tests compare against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..utils.arena import Arena, ArenaStats, total_footprint

__all__ = ["HybridKVCache", "SEGMENT_VISION", "SEGMENT_TEXT"]

SEGMENT_VISION = 0
SEGMENT_TEXT = 1


class HybridKVCache:
    """Numpy KV store for one AASD generation session (batch size 1).

    Arrays returned by :meth:`gather` alias arena storage: they are valid
    until the next mutating call (``append_context`` / ``append_draft`` /
    ``clear_draft``), after which their contents are undefined.  The
    engine consumes them within a single draft step, which is what makes
    the zero-copy contract safe.
    """

    def __init__(self, n_heads: int, head_dim: int) -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        self._stats = ArenaStats()
        item = (1, n_heads, 0, head_dim)
        self._k = Arena(item, axis=2, dtype=np.float32, stats=self._stats)
        self._v = Arena(item, axis=2, dtype=np.float32, stats=self._stats)
        self._pos = Arena((0,), axis=0, dtype=np.int64, stats=self._stats)
        self._seg = Arena((0,), axis=0, dtype=np.int8, stats=self._stats)
        self._ctx_len = 0
        self._n_vision = 0
        self._blocked: Dict[Tuple[bool, bool], np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def context_len(self) -> int:
        """Entries in the fixed context store (projected vision + text KV)."""
        return self._ctx_len

    @property
    def draft_len(self) -> int:
        """Entries in the block-local draft store (cleared every block)."""
        return len(self._k) - self._ctx_len

    @property
    def seq_len(self) -> int:
        """Total attended KV length: context plus current draft segment."""
        return len(self._k)

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

    # ------------------------------------------------------------------
    def append_context(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray, segment: int) -> None:
        """Append target-provided (or projected) KV to the context store.

        The draft segment must be empty (``clear_draft`` first, as the
        engine does after every verify): context rows sit below the draft
        rows in the one shared lane.
        """
        if segment not in (SEGMENT_VISION, SEGMENT_TEXT):
            raise ShapeError(f"unknown segment tag {segment}")
        if self.draft_len:
            raise ShapeError(
                f"append_context with {self.draft_len} live draft rows; call clear_draft first"
            )
        k, v, positions = self._check(k, v, positions)
        self._k.append(k)
        self._v.append(v)
        self._pos.append(positions)
        self._seg.append(np.full(k.shape[2], segment, dtype=np.int8))
        self._ctx_len += k.shape[2]
        if segment == SEGMENT_VISION:
            self._n_vision += k.shape[2]
        self._blocked.clear()

    def append_draft(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Append the draft head's own KV for freshly drafted tokens."""
        k, v, positions = self._check(k, v, positions)
        self._k.append(k)
        self._v.append(v)
        self._pos.append(positions)
        self._blocked.clear()

    def clear_draft(self) -> None:
        """Drop the block-local draft KV (called after every verify).

        A pointer decrement on the shared lane — rollback after a
        rejected draft block costs nothing.
        """
        if self.draft_len:
            self._k.truncate(self._ctx_len)
            self._v.truncate(self._ctx_len)
            self._pos.truncate(self._ctx_len)
            self._blocked.clear()

    # ------------------------------------------------------------------
    def gather(
        self,
        disable_image_kv: bool = False,
        disable_text_kv: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(K, V, key_positions, blocked)`` over context + draft.

        ``blocked`` is a per-key boolean row implementing the modality
        ablations; the draft segment is never blocked.  All four arrays
        are zero-copy cached views/rows: repeated calls between mutations
        return the same objects without touching the data.
        """
        key = (disable_image_kv, disable_text_kv)
        blocked = self._blocked.get(key)
        if blocked is None:
            blocked = np.zeros(self.seq_len, dtype=bool)
            if disable_image_kv or disable_text_kv:
                seg = self._seg.view()[: self._ctx_len]
                if disable_image_kv:
                    blocked[: self._ctx_len] |= seg == SEGMENT_VISION
                if disable_text_kv:
                    blocked[: self._ctx_len] |= seg == SEGMENT_TEXT
            self._blocked[key] = blocked
        return self._k.view(), self._v.view(), self._pos.view(), blocked

    def segment_counts(self) -> Tuple[int, int]:
        """(n_vision, n_text) context entries — used by cost accounting."""
        return self._n_vision, self._ctx_len - self._n_vision

    def arena_stats(self) -> ArenaStats:
        """Copy/growth accounting aggregated over this cache's arenas."""
        return self._stats

    def footprint(self) -> Tuple[int, int]:
        """``(reserved, live)`` bytes of the K/V, position and segment lanes."""
        return total_footprint([self._k, self._v, self._pos, self._seg])
