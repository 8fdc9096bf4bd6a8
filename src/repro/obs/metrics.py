"""Exact quantiles over raw samples.

Numbers are owned by the objects that produce them (``DecodeRecord``,
``ServingReport``, ``ArenaStats``, the span trace); digests over their
samples use :func:`exact_quantile`, so a p95 is always the p95 of the
samples themselves, never a bucket estimate.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigError

__all__ = ["exact_quantile"]


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Exact quantile with linear interpolation (numpy's default method).

    Every latency and block-efficiency digest is computed from its raw
    samples with this function (per-request records, span durations).
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ConfigError("quantile of an empty sample")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac
