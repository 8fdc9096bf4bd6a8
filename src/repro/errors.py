"""Exception hierarchy for the repro library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "TokenizerError",
    "ShapeError",
    "PrefillGroupError",
    "DecodingError",
    "TrainingError",
    "CheckpointError",
    "GuardViolation",
    "ServingError",
    "AdmissionError",
    "ChaosError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration."""


class TokenizerError(ReproError):
    """Tokenizer vocabulary or encoding failure."""


class ShapeError(ReproError):
    """Tensor shape mismatch detected at an API boundary."""


class PrefillGroupError(ReproError):
    """Some groups of a row-budgeted batched prefill raised; the rest completed.

    Raised by :meth:`repro.models.llava.MiniLlava.prefill_batch` when it
    ran more than one group.  ``outcomes`` pairs each group's request
    indices (a ``range``, in input order) with its ``(caches,
    last_logits)`` lists or with the exception it raised, so a caller
    redoes only the failed groups.
    """

    def __init__(self, outcomes) -> None:
        failed = [o for _, o in outcomes if isinstance(o, Exception)]
        super().__init__(f"{len(failed)} of {len(outcomes)} prefill groups failed: {failed[0]}")
        self.outcomes = outcomes


class DecodingError(ReproError):
    """Invalid decoding request or internal decoding inconsistency."""


class TrainingError(ReproError):
    """Training loop failure (diverged loss, empty dataset, ...)."""


class CheckpointError(ReproError):
    """Checkpoint could not be read or failed integrity verification.

    Wraps the third-party exceptions checkpoint I/O can surface
    (``zipfile.BadZipFile``, ``OSError``, ``KeyError`` for missing tensors,
    checksum mismatches) so callers only ever need to catch one type; the
    message always names the offending path.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        self.path = path


class GuardViolation(ReproError):
    """A runtime invariant check failed (non-finite values, cache corruption).

    Raised by :mod:`repro.robustness.guards`; the decode engine treats it as
    a recoverable draft fault and degrades to target-only decoding.
    """


class ServingError(ReproError):
    """Serving-layer failure (scheduler misuse, invalid request)."""


class AdmissionError(ServingError):
    """A request was refused at admission (queue full or incompatible).

    This is the backpressure signal of :mod:`repro.serving`: online callers
    should retry later or shed load; the offline ``serve_requests`` facade
    converts it into a ``rejected`` result instead of raising.
    """


class ChaosError(ReproError):
    """A chaos-harness invariant was violated after a fault storm.

    Raised by :func:`repro.robustness.chaos.assert_chaos`; the message
    lists every violated invariant so a failing storm is diagnosable from
    the exception alone.
    """
