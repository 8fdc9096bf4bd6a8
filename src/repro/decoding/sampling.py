"""Token sampling: greedy / temperature / top-k / top-p.

The lossless accept rule that verifies a drafted block against these
distributions is :func:`repro.decoding.tree.speculative_verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DecodingError
from ..utils.rng import derive

__all__ = ["SamplerConfig", "Sampler", "logits_to_probs"]


@dataclass(frozen=True)
class SamplerConfig:
    """How tokens are drawn from a distribution."""

    greedy: bool = True
    temperature: float = 1.0
    top_k: int = 0        # 0 disables
    top_p: float = 1.0    # 1.0 disables
    seed: int = 0         # root seed for the sampler's RNG stream

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise DecodingError(f"temperature must be positive, got {self.temperature}")
        if self.top_k < 0:
            raise DecodingError(f"top_k must be >= 0, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise DecodingError(f"top_p must be in (0, 1], got {self.top_p}")


def logits_to_probs(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Map a logits row to the sampling distribution the config implies.

    Under greedy decoding this is a one-hot argmax distribution, so the
    speculative accept rule reduces to exact token matching.

    Non-finite logits are hardened: NaN/-Inf/+Inf entries are masked to
    ``-inf`` (never sampled); a row with no finite entry at all raises
    :class:`DecodingError`, which the AASD engine treats as a draft fault.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    finite = np.isfinite(logits)
    if not finite.all():
        if not finite.any():
            raise DecodingError("logits contain no finite values")
        logits = np.where(finite, logits, -np.inf)
    if config.greedy:
        probs = np.zeros_like(logits)
        probs[int(np.argmax(logits))] = 1.0
        return probs
    scaled = logits / config.temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    if config.top_k > 0 and config.top_k < probs.size:
        cutoff = np.sort(probs)[-config.top_k]
        probs = np.where(probs >= cutoff, probs, 0.0)
        probs /= probs.sum()
    if config.top_p < 1.0:
        order = np.argsort(probs)[::-1]
        cumulative = np.cumsum(probs[order])
        keep_count = int(np.searchsorted(cumulative, config.top_p) + 1)
        mask = np.zeros_like(probs, dtype=bool)
        mask[order[:keep_count]] = True
        probs = np.where(mask, probs, 0.0)
        probs /= probs.sum()
    return probs


class Sampler:
    """Stateful sampler owning its RNG stream.

    Without an explicit ``rng`` the stream is derived from
    ``config.seed`` — sampled decoding is reproducible by construction,
    never seeded from OS entropy.
    """

    def __init__(self, config: SamplerConfig, rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else derive(config.seed, "sampler")

    def sample(
        self,
        logits: np.ndarray,
        *,
        probs: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Draw one token from the distribution ``logits`` implies.

        ``probs``, when the caller already holds
        ``logits_to_probs(logits, self.config)``, is drawn from as is
        instead of being recomputed; ``rng`` draws from the caller's
        stream (the AASD engine passes each request's own) instead of
        the sampler's.  Greedy configs consume no draws.
        """
        if probs is None:
            probs = logits_to_probs(logits, self.config)
        if self.config.greedy:
            return int(np.argmax(probs))
        return int((rng if rng is not None else self.rng).choice(probs.size, p=probs))
