"""Runtime invariant validators for the graceful-degradation decode path.

All checks raise :class:`~repro.errors.GuardViolation` — the engine treats
that as a recoverable draft fault (skip the block, or disable speculation)
rather than a crash.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import GuardViolation

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.core.engine
    from ..core.hybrid_cache import HybridKVCache

__all__ = ["all_finite", "ensure_finite", "check_hybrid_cache"]


def all_finite(array: np.ndarray) -> bool:
    """True when every element of ``array`` is finite (no NaN/Inf)."""
    return bool(np.isfinite(np.asarray(array)).all())


def ensure_finite(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``array`` unchanged, or raise :class:`GuardViolation`."""
    array = np.asarray(array)
    if not np.isfinite(array).all():
        n_bad = int((~np.isfinite(array)).sum())
        raise GuardViolation(
            f"{name} contains {n_bad} non-finite value(s) "
            f"(shape {array.shape})"
        )
    return array


def check_hybrid_cache(cache: "HybridKVCache") -> None:
    """Validate the hybrid KV cache's structural and numeric invariants.

    Checks (via the public API only): the source holds its ``first_row``
    rows, every block a step attends has K/V of one ``(1, H, T, Dh)``
    shape, the blocks add up to ``seq_len``, and every attended row —
    vision, context and draft lane — is finite.
    """
    if cache.source.seq_len < cache.first_row:
        raise GuardViolation(
            f"hybrid cache source holds {cache.source.seq_len} rows, "
            f"fewer than its first row {cache.first_row}"
        )
    blocks = cache.gather()
    expect = (1, cache.n_heads, cache.head_dim)
    for k, v in blocks:
        if k.shape != v.shape or (k.shape[:2] + k.shape[3:]) != expect:
            raise GuardViolation(
                f"hybrid cache block K {k.shape} / V {v.shape}, "
                f"expected (1, {expect[1]}, T, {expect[2]})"
            )
    total = sum(k.shape[2] for k, _ in blocks)
    if total != cache.seq_len:
        raise GuardViolation(
            f"hybrid cache blocks hold {total} rows, bookkeeping says {cache.seq_len}"
        )
    for k, v in blocks:
        ensure_finite(k, "hybrid cache K")
        ensure_finite(v, "hybrid cache V")
