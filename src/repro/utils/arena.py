"""Zero-copy KV arenas: preallocated storage for the decode hot path.

The naive caches paid O(T) ``np.concatenate`` work on *every* appended
token and a slice-copy on every rollback — O(T^2) per sequence, times the
batch width in the serving scheduler.  This module provides the storage
layer that removes both costs:

* :class:`Arena` — an amortized-doubling buffer growing along one axis.
  Appends memcpy only the new tokens into preallocated slack; truncation
  (draft rollback) is a pointer decrement; reads return **cached
  zero-copy views** that stay identity-stable until the next mutation.
* :class:`ArenaStats` — per-cache byte/grow/peak accounting, the one
  owner of those numbers: the engine stamps them on each ``decode`` span
  and the serving scheduler sums them into ``ServingReport.bytes_copied``
  / ``arena_grows`` / ``peak_cache_tokens``.

Growth policy: capacities start at :data:`MIN_CAPACITY` tokens and double
until they fit the request, so total relocation work over a sequence of
appends is O(T) — amortized O(1) per token.  A caller that knows its
first append (``KVCache`` does: the prefill) passes it as ``capacity`` and
the same rule sizes the first buffer, so the prefill never relocates.  A
store that knows it stays small (the draft head's block-local lane) passes
a ``capacity`` below :data:`MIN_CAPACITY`, which is taken as is; a
relocation still doubles from :data:`MIN_CAPACITY`.

This module lives in ``repro.utils`` (below both ``repro.models`` and
``repro.core``) so either cache can build on it without an import cycle;
``repro.core.kv_arena`` re-exports it as the documented public surface.
See ``docs/performance.md`` for the full design discussion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..obs.profile import OP_ARENA_COPY, OP_ARENA_VIEW, PROFILER as _PROFILER

__all__ = ["Arena", "ArenaStats", "MIN_CAPACITY", "combined_stats", "total_footprint"]

#: Smallest capacity (in tokens along the grow axis) an arena allocates.
MIN_CAPACITY = 64


@dataclass
class ArenaStats:
    """Copy/growth accounting for one cache's arenas (shared across them).

    ``bytes_copied`` counts every byte the arenas memcpy'd: the
    unavoidable new-token writes plus the occasional doubling
    relocations.  ``grow_events`` counts buffer reallocations, and
    ``peak_tokens`` is the longest any arena ever got.
    """

    bytes_copied: int = 0
    grow_events: int = 0
    peak_tokens: int = 0

    def add(self, other: "ArenaStats") -> "ArenaStats":
        """Accumulate ``other`` into self (peak is a max); returns self."""
        self.bytes_copied += other.bytes_copied
        self.grow_events += other.grow_events
        self.peak_tokens = max(self.peak_tokens, other.peak_tokens)
        return self


def combined_stats(*caches: object) -> ArenaStats:
    """Sum ``arena_stats()`` over caches, skipping ones without arenas.

    Tolerant by design: reference (non-arena) cache implementations and
    ``None`` slots contribute nothing, so instrumentation call sites never
    need to care which storage backs a session.
    """
    total = ArenaStats()
    for cache in caches:
        getter = getattr(cache, "arena_stats", None)
        if getter is not None:
            total.add(getter())
    return total


def total_footprint(arenas) -> Tuple[int, int]:
    """``(reserved, live)`` bytes summed over ``arenas``, skipping ``None`` slots."""
    sizes = [a.footprint() for a in arenas if a is not None]
    return sum(r for r, _ in sizes), sum(n for _, n in sizes)


def _grown_capacity(current: int, needed: int) -> int:
    """Next capacity: double from ``current`` until ``needed`` fits."""
    cap = max(current, MIN_CAPACITY)
    while cap < needed:
        cap *= 2
    return cap


class Arena:
    """Amortized-doubling append buffer growing along one axis.

    Shape is fixed except along ``axis`` (the token axis).  ``view()``
    returns the live prefix as a cached numpy view — no data is copied,
    and the same ndarray object comes back until a mutation invalidates
    it, which is what lets callers assert "no copy happened between my
    reads".
    """

    __slots__ = ("_buf", "_len", "_axis", "_stats", "_view")

    def __init__(
        self,
        item_shape: Tuple[int, ...],
        axis: int,
        dtype: np.dtype,
        stats: Optional[ArenaStats] = None,
        capacity: int = MIN_CAPACITY,
    ) -> None:
        shape = list(item_shape)
        capacity = int(capacity)
        shape[axis] = capacity if capacity < MIN_CAPACITY else _grown_capacity(0, capacity)
        self._buf = np.empty(tuple(shape), dtype=dtype)
        self._len = 0
        self._axis = axis
        self._stats = stats if stats is not None else ArenaStats()
        self._view: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Live tokens along the grow axis."""
        return self._len

    @property
    def capacity(self) -> int:
        """Allocated slots along the grow axis."""
        return self._buf.shape[self._axis]

    def footprint(self) -> Tuple[int, int]:
        """``(reserved, live)`` bytes: the backing buffer, and its live prefix."""
        nbytes = self._buf.nbytes
        return nbytes, nbytes // self.capacity * self._len

    def _slice(self, n: int) -> Tuple[slice, ...]:
        """Index tuple selecting the first ``n`` tokens along the axis."""
        index = [slice(None)] * self._buf.ndim
        index[self._axis] = slice(0, n)
        return tuple(index)

    def view(self) -> np.ndarray:
        """Zero-copy view of the live prefix; cached until a mutation.

        The returned array aliases arena storage: it is valid until the
        next ``append``/``truncate`` on this arena, after which its
        contents are undefined (rollback + append rewrites slots in
        place).  Copy it if you need to hold it across mutations.
        """
        if self._view is None:
            if _PROFILER.enabled:
                begin = time.perf_counter()
                self._view = self._buf[self._slice(self._len)]
                _PROFILER.record(OP_ARENA_VIEW,
                                 1000.0 * (time.perf_counter() - begin))
            else:
                self._view = self._buf[self._slice(self._len)]
        return self._view

    # ------------------------------------------------------------------
    def _relocate(self, capacity: int) -> None:
        """Move the live prefix into a fresh buffer of ``capacity`` slots."""
        shape = list(self._buf.shape)
        shape[self._axis] = capacity
        fresh = np.empty(tuple(shape), dtype=self._buf.dtype)
        live = self._buf[self._slice(self._len)]
        if _PROFILER.enabled:
            begin = time.perf_counter()
            fresh[self._slice(self._len)] = live
            _PROFILER.record(OP_ARENA_COPY,
                             1000.0 * (time.perf_counter() - begin),
                             nbytes=live.nbytes)
        else:
            fresh[self._slice(self._len)] = live
        self._buf = fresh
        self._stats.bytes_copied += live.nbytes
        self._stats.grow_events += 1

    def append(self, array: np.ndarray) -> None:
        """Memcpy ``array`` (same shape off-axis) into preallocated slack."""
        array = np.asarray(array)
        if array.ndim != self._buf.ndim:
            raise ShapeError(
                f"arena append ndim {array.ndim} != {self._buf.ndim}"
            )
        expect = self._buf.shape
        got = array.shape
        if got[: self._axis] != expect[: self._axis] or got[self._axis + 1:] != expect[self._axis + 1:]:
            raise ShapeError(
                f"arena append shape {array.shape} incompatible with "
                f"item shape {tuple(expect)} (axis {self._axis} free)"
            )
        n_new = array.shape[self._axis]
        need = self._len + n_new
        if need > self.capacity:
            self._relocate(_grown_capacity(self.capacity, need))
        index = [slice(None)] * self._buf.ndim
        index[self._axis] = slice(self._len, need)
        if _PROFILER.enabled:
            begin = time.perf_counter()
            self._buf[tuple(index)] = array
            _PROFILER.record(OP_ARENA_COPY,
                             1000.0 * (time.perf_counter() - begin),
                             nbytes=array.nbytes)
        else:
            self._buf[tuple(index)] = array
        self._len = need
        self._view = None
        self._stats.bytes_copied += array.nbytes
        self._stats.peak_tokens = max(self._stats.peak_tokens, need)

    def truncate(self, new_len: int) -> None:
        """Drop tokens beyond ``new_len``: a pointer decrement, no copy."""
        if not 0 <= new_len <= self._len:
            raise ShapeError(
                f"cannot truncate arena of len {self._len} to {new_len}"
            )
        if new_len != self._len:
            self._len = new_len
            self._view = None
