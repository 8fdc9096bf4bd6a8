"""Token sampling and lossless speculative accept/reject.

Implements greedy / temperature / top-k / top-p sampling plus the
Leviathan et al. (2023) speculative-sampling rule used by the verify step:
the combined draft-then-verify procedure provably samples from the target
distribution, and degenerates to exact prefix matching under greedy
decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DecodingError
from ..utils.rng import derive

__all__ = ["SamplerConfig", "Sampler", "logits_to_probs", "speculative_verify", "VerifyOutcome"]


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


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of verifying one block of draft tokens."""

    accepted: Tuple[int, ...]   # draft tokens that survived, in order
    next_token: int             # correction token (or bonus if all accepted)
    all_accepted: bool

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    @property
    def tokens_emitted(self) -> int:
        """Tokens produced by this block: accepted drafts + the next token."""
        return len(self.accepted) + 1


def speculative_verify(
    draft_tokens: List[int],
    draft_probs: np.ndarray,
    target_logits: np.ndarray,
    config: SamplerConfig,
    rng: Optional[np.random.Generator],
) -> VerifyOutcome:
    """Accept/reject a block of draft tokens against target logits.

    Parameters
    ----------
    draft_tokens:
        The gamma proposed token ids.
    draft_probs:
        ``(gamma, vocab)`` draft distributions each token was drawn from.
    target_logits:
        ``(gamma + 1, vocab)`` target logits: row ``i`` is the target's
        distribution for draft position ``i``; the final row is the bonus
        distribution used when every draft token is accepted.
    config:
        Sampling configuration (shared by draft and target for losslessness).
    rng:
        Random stream for accept tests and residual sampling (the AASD
        engine passes the request's own); unused, and may be ``None``,
        under greedy configs.

    Returns the accepted prefix and the next committed token.  Under greedy
    configs this is exact prefix matching against the target argmax.
    """
    gamma = len(draft_tokens)
    target_logits = np.asarray(target_logits, dtype=np.float64)
    if target_logits.shape[0] != gamma + 1:
        raise DecodingError(
            f"need {gamma + 1} target logit rows for {gamma} draft tokens, "
            f"got {target_logits.shape[0]}"
        )
    draft_probs = np.asarray(draft_probs, dtype=np.float64)
    if draft_probs.shape[0] != gamma:
        raise DecodingError(
            f"need {gamma} draft prob rows, got {draft_probs.shape[0]}"
        )

    accepted: List[int] = []
    for i, token in enumerate(draft_tokens):
        target_probs = logits_to_probs(target_logits[i], config)
        if config.greedy:
            if int(np.argmax(target_probs)) == token:
                accepted.append(token)
                continue
            return VerifyOutcome(tuple(accepted), int(np.argmax(target_probs)), False)
        row = draft_probs[i]
        if not (np.isfinite(row).all() and 0.0 < float(row.sum()) < np.inf):
            # Corrupt draft distribution (NaN/Inf or degenerate mass):
            # discard the proposal and emit a pure target sample, which is
            # lossless no matter what the drafter produced.
            next_token = int(rng.choice(target_probs.size, p=target_probs))
            return VerifyOutcome(tuple(accepted), next_token, False)
        p_target = target_probs[token]
        p_draft = row[token]
        if p_draft <= 0.0 or rng.random() < min(1.0, p_target / p_draft):
            if p_target <= 0.0 and p_draft <= 0.0:
                # Token impossible under both: reject via the residual below.
                pass
            else:
                accepted.append(token)
                continue
        residual = np.maximum(target_probs - draft_probs[i], 0.0)
        total = residual.sum()
        if total <= 0.0:
            # Distributions identical: any target sample is valid.
            next_token = int(rng.choice(target_probs.size, p=target_probs))
        else:
            next_token = int(rng.choice(residual.size, p=residual / total))
        return VerifyOutcome(tuple(accepted), next_token, False)

    bonus_probs = logits_to_probs(target_logits[gamma], config)
    if config.greedy:
        bonus = int(np.argmax(bonus_probs))
    else:
        bonus = int(rng.choice(bonus_probs.size, p=bonus_probs))
    return VerifyOutcome(tuple(accepted), bonus, True)
