"""Adaptive speculation length (dynamic gamma).

The paper fixes the speculation depth gamma per run (3 or 5).  A natural
extension — explored by follow-up SD work ("Decoding Speculative Decoding",
Yan et al. 2024) — is to adapt gamma online: when recent draft tokens are
being accepted, speculate deeper; after rejections, back off.  This module
provides the pluggable controllers :class:`~repro.core.engine.AASDEngine`
accepts — per engine or per session, whichever drafter it runs — plus an
ablation benchmark target (``benchmarks/bench_ablation_gamma.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import DecodingError

__all__ = ["GammaController", "FixedGamma", "AdaptiveGamma"]


class GammaController(ABC):
    """Chooses the speculation depth for each draft-then-verify block."""

    @abstractmethod
    def next_gamma(self) -> int:
        """Depth to use for the upcoming block (>= 1)."""

    @abstractmethod
    def update(self, n_accepted: int, gamma: int) -> None:
        """Feed back the verification outcome of the last block."""

    def reset(self) -> None:
        """Called at the start of each new generation."""


class FixedGamma(GammaController):
    """The paper's setting: a constant depth."""

    def __init__(self, gamma: int) -> None:
        if gamma < 1:
            raise DecodingError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma

    def next_gamma(self) -> int:
        return self.gamma

    def update(self, n_accepted: int, gamma: int) -> None:  # noqa: D102 - no state
        pass

    def __repr__(self) -> str:
        return f"FixedGamma({self.gamma})"


class AdaptiveGamma(GammaController):
    """AIMD-style depth control on an EWMA of the acceptance rate.

    Depth increases by one while the smoothed acceptance rate is above
    ``raise_threshold`` (everything is being accepted — drafting is cheap
    relative to wasted verify slots), and drops by one when it falls below
    ``lower_threshold``.
    """

    def __init__(
        self,
        initial_gamma: int = 3,
        min_gamma: int = 1,
        max_gamma: int = 8,
        raise_threshold: float = 0.8,
        lower_threshold: float = 0.4,
        smoothing: float = 0.7,
    ) -> None:
        if not 1 <= min_gamma <= initial_gamma <= max_gamma:
            raise DecodingError(
                f"need 1 <= min {min_gamma} <= initial {initial_gamma} <= max {max_gamma}"
            )
        if not 0.0 <= lower_threshold < raise_threshold <= 1.0:
            raise DecodingError("thresholds must satisfy 0 <= lower < raise <= 1")
        if not 0.0 <= smoothing < 1.0:
            raise DecodingError(f"smoothing must be in [0, 1), got {smoothing}")
        self.initial_gamma = initial_gamma
        self.min_gamma = min_gamma
        self.max_gamma = max_gamma
        self.raise_threshold = raise_threshold
        self.lower_threshold = lower_threshold
        self.smoothing = smoothing
        self.reset()

    def reset(self) -> None:
        self._gamma = self.initial_gamma
        self._ewma = 0.5

    def next_gamma(self) -> int:
        return self._gamma

    def update(self, n_accepted: int, gamma: int) -> None:
        if gamma <= 0:
            raise DecodingError(f"reported gamma must be positive, got {gamma}")
        rate = n_accepted / gamma
        self._ewma = self.smoothing * self._ewma + (1.0 - self.smoothing) * rate
        if self._ewma > self.raise_threshold and self._gamma < self.max_gamma:
            self._gamma += 1
        elif self._ewma < self.lower_threshold and self._gamma > self.min_gamma:
            self._gamma -= 1

    @property
    def acceptance_estimate(self) -> float:
        return self._ewma

    def __repr__(self) -> str:
        return (
            f"AdaptiveGamma(gamma={self._gamma}, range=[{self.min_gamma}, "
            f"{self.max_gamma}], ewma={self._ewma:.2f})"
        )
