"""Hybrid KV cache: what the draft head attends, read where it lives.

During AASD inference the speculating module attends over three blocks
(PAPER.md §1 step 1: ``[K*_I, K_T, own draft K]``):

* the **vision block**: the projector's compressed vision K/V, computed
  once when the request opens and held as plain arrays (the Figure 3 head,
  which ignores the target's KV, has none);
* the **context source**: rows ``first_row:`` of one layer of a
  :class:`~repro.models.kv_cache.KVCache`, read in place at step time.
  For AASD that is the target's own cache, its last layer, from the first
  text row on — every committed token except the newest, which the next
  block's first step feeds.  The verify commit
  (:meth:`KVCache.keep_rows`) is what extends it; the store copies no
  target row.  For the Figure 3 ablation it is a one-layer cache the
  store owns, filled by :meth:`HybridKVCache.append_context`;
* the **draft lane**: the head's own K/V for tokens drafted in the current
  block, one float64 :class:`~repro.utils.arena.Arena` pair — ``append_draft``
  memcpys one row into slack and ``clear_draft`` (after every verify) is
  a pointer decrement.

:meth:`HybridKVCache.gather` returns the blocks a step attends, in that
order, and leaves a Figure 4 ablation's block out.  Every block is a
zero-copy view, valid until the next mutation of the store *or of the
target cache*.

:class:`repro.core.reference.ReferenceHybridKVCache` is the
concatenate-per-call spec the property tests compare against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..models.kv_cache import KVCache
from ..utils.arena import Arena, ArenaStats, total_footprint

__all__ = ["HybridKVCache"]

Block = Tuple[np.ndarray, np.ndarray]

#: First capacity of the draft lane: one block's rows (γ, or a tree's node
#: budget) fit without a relocation.
LANE_ROWS = 16


class HybridKVCache:
    """The draft state of one AASD request (batch size 1).

    ``source`` (default: a fresh one-layer cache the store owns) supplies
    the context rows of its last layer from ``first_row`` on; ``vision``
    is the compressed vision ``(K, V)``, or ``None``.
    """

    def __init__(self, n_heads: int, head_dim: int, source: Optional[KVCache] = None,
                 first_row: int = 0, vision: Optional[Block] = None) -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.owns_source = source is None
        self.source = KVCache(1) if source is None else source
        self.layer = self.source.n_layers - 1
        self.first_row = first_row
        self.vision = vision
        self._vision_rows = 0 if vision is None else vision[0].shape[2]
        self._stats = ArenaStats()
        item = (1, n_heads, 0, head_dim)
        self._k, self._v = (
            Arena(item, axis=2, dtype=np.float64, stats=self._stats, capacity=LANE_ROWS)
            for _ in range(2)
        )

    # ------------------------------------------------------------------
    @property
    def context_len(self) -> int:
        """Keys before the draft lane: the vision block plus the source's rows."""
        return self._vision_rows + self.source.seq_len - self.first_row

    @property
    def draft_len(self) -> int:
        """Rows in the block-local draft lane (cleared every block)."""
        return len(self._k)

    @property
    def seq_len(self) -> int:
        """Total attended KV length: context plus the draft lane."""
        return self.context_len + len(self._k)

    # ------------------------------------------------------------------
    def _check(self, k: np.ndarray, v: np.ndarray) -> None:
        """Reject K/V that is not one ``(1, n_heads, T, head_dim)`` pair."""
        if np.shape(k) != np.shape(v):
            raise ShapeError(f"K/V mismatch: {np.shape(k)} vs {np.shape(v)}")
        shape = np.shape(k)
        if len(shape) != 4 or shape[:2] != (1, self.n_heads) or shape[3] != self.head_dim:
            raise ShapeError(f"expected (1, {self.n_heads}, T, {self.head_dim}), got {shape}")

    def append_context(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append the head's own context K/V to the source the store owns.

        The Figure 3 path (``use_target_kv=False``); an AASD store's
        context is the target's cache, which only its forwards extend.
        The draft lane must be empty (``clear_draft`` first, as the engine
        does after every verify): context rows precede the block's.
        """
        if not self.owns_source:
            raise ShapeError("append_context on a store reading the target's cache")
        if len(self._k):
            raise ShapeError(
                f"append_context with {len(self._k)} live draft rows; call clear_draft first"
            )
        self._check(k, v)
        self.source.append(0, k, v)

    def append_draft(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append the draft head's own K/V for freshly drafted tokens."""
        self._check(k, v)
        self._k.append(k)
        self._v.append(v)

    def clear_draft(self) -> None:
        """Drop the draft lane (after every verify): a pointer decrement."""
        self._k.truncate(0)
        self._v.truncate(0)

    # ------------------------------------------------------------------
    def gather(self, disable_image_kv: bool = False,
               disable_text_kv: bool = False) -> List[Block]:
        """The ``(K, V)`` blocks a draft step attends: vision, context, draft lane.

        The draft lane is always last, empty or not; a Figure 4 ablation
        leaves its block out.  Every block is a zero-copy view, valid
        until the next mutation of this store or of the source cache.
        """
        blocks = []
        if self.vision is not None and not disable_image_kv:
            blocks.append(self.vision)
        if self.source.seq_len and not disable_text_kv:
            k, v = self.source.layer(self.layer)
            blocks.append((k[:, :, self.first_row:, :], v[:, :, self.first_row:, :]))
        blocks.append((self._k.view(), self._v.view()))
        return blocks

    def arena_stats(self) -> ArenaStats:
        """Copy/growth accounting of the draft lane (and of an owned source)."""
        stats = ArenaStats().add(self._stats)
        return stats.add(self.source.arena_stats()) if self.owns_source else stats

    def footprint(self) -> Tuple[int, int]:
        """``(reserved, live)`` bytes this store holds: lane, vision, owned source."""
        reserved, live = total_footprint([self._k, self._v])
        if self.vision is not None:
            held = sum(a.nbytes for a in self.vision)
            reserved, live = reserved + held, live + held
        if self.owns_source:
            r, n = self.source.footprint()
            reserved, live = reserved + r, live + n
        return reserved, live
