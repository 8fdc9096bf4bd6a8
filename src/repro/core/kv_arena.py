"""Public surface of the zero-copy KV arena storage layer.

The implementation lives in :mod:`repro.utils.arena` so that
:mod:`repro.models.kv_cache` (a layer *below* ``repro.core``) can build on
it without an import cycle; this module is the documented entry point the
rest of the stack imports from.  See the implementation module and
``docs/performance.md`` for the design: amortized-doubling growth, cached
zero-copy views and pointer-decrement rollback.

This module also owns :class:`BlockTable`, a batch-level gather view:
one table wraps B per-request caches and hands out per-layer key/value
*views* plus cu-seqlen offsets, so assembling a batch's KV costs zero
copies and O(B) Python, not O(B·T).  The packed forward
(``docs/kernels.md``) does not go through it: it reads each request's
``caches[i].layer()`` directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..nn.ragged import cu_seqlens as _cu_seqlens
from ..utils.arena import MIN_CAPACITY, Arena, ArenaStats, combined_stats

__all__ = [
    "Arena",
    "ArenaStats",
    "MIN_CAPACITY",
    "combined_stats",
    "BlockTable",
]


class BlockTable:
    """Batch-level zero-copy gather view over per-request KV caches.

    A ``BlockTable`` wraps an ordered sequence of per-request caches —
    either layered target caches (``KVCache`` / ``ReferenceKVCache``:
    anything with ``seq_len``, ``layer(i)`` and ``positions``) or draft
    hybrid caches (``HybridKVCache``-likes with ``seq_len`` and
    ``gather``) — and exposes the batch as ragged *blocks*: request
    ``i``'s KV is block ``i``, addressed by the same cu-seqlen offsets
    that index the packed activation tensor.

    Nothing is copied at construction or on access: every accessor
    re-fetches the underlying cache views, so arena mutations between
    rounds — appends, ``truncate``, and the pointer-decrement
    ``clear_draft`` rollback — are always visible through the table
    (pinned by ``tests/core/test_ragged_serving.py``).  The only copying
    method is :meth:`packed_layer`, the explicitly fused gather; the
    packed forward attends per block and never calls it.
    """

    def __init__(self, caches: Sequence[object]) -> None:
        """Wrap ``caches`` (one per request, batch order) without copying."""
        self._caches = list(caches)

    @property
    def caches(self) -> Tuple[object, ...]:
        """The wrapped per-request caches, in batch order."""
        return tuple(self._caches)

    def __len__(self) -> int:
        """Number of requests (blocks) in the table."""
        return len(self._caches)

    def seq_lens(self) -> List[int]:
        """Current per-request KV lengths."""
        return [int(c.seq_len) for c in self._caches]

    def cu_seqlens(self) -> np.ndarray:
        """Cu-seqlen offsets over the current per-request KV lengths."""
        return _cu_seqlens(self.seq_lens())

    def layer_blocks(
        self, layer_idx: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-request ``(keys, values)`` views for one layer (no copies).

        Only meaningful over layered caches; entry ``i`` of each list is
        request ``i``'s ``(1, H, T_i, Dh)`` arena view for ``layer_idx``.
        """
        keys: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for cache in self._caches:
            k, v = cache.layer(layer_idx)
            keys.append(k)
            values.append(v)
        return keys, values

    def position_rows(self) -> List[np.ndarray]:
        """Per-request absolute key positions (layered caches)."""
        return [np.asarray(c.positions) for c in self._caches]

    def gather_rows(
        self, *, disable_image_kv: bool = False, disable_text_kv: bool = False
    ) -> List[List[Tuple[np.ndarray, np.ndarray]]]:
        """Per-request hybrid gathers: each a list of ``(k, v)`` blocks.

        Only meaningful over hybrid caches; delegates to each cache's
        ``gather`` with the ablation flags, returning the zero-copy
        block views the draft head attends over.
        """
        return [
            c.gather(
                disable_image_kv=disable_image_kv, disable_text_kv=disable_text_kv
            )
            for c in self._caches
        ]

    def packed_layer(
        self, layer_idx: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused ``(keys, values, key_positions)`` for one layer (copies).

        Concatenates every request's layer views into single
        ``(1, H, sum_k, Dh)`` arrays plus the flat key-position vector —
        the input shape of one fused attention over the whole batch.
        The bitwise-exact serving path never calls this; it attends per
        block via :meth:`layer_blocks`.
        """
        keys, values = self.layer_blocks(layer_idx)
        positions = self.position_rows()
        empty = np.zeros(0, dtype=np.int64)
        return (
            np.concatenate(keys, axis=2) if keys else np.zeros((1, 0, 0, 0)),
            np.concatenate(values, axis=2) if values else np.zeros((1, 0, 0, 0)),
            np.concatenate(positions) if positions else empty,
        )
