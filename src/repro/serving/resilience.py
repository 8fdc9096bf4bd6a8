"""Resilience policies for the serving tier: retry, breaker, shedding.

Each policy is one switch on :class:`~repro.serving.scheduler.ServingConfig`
(``retry`` with its jitter ``retry_seed``, ``breaker``, and the shed
threshold ``max_queue_ms``); their thresholds are the module constants
below.  The scheduler in :mod:`repro.serving.scheduler` owns *when* they
fire.  Everything is deterministic given the retry seed and the request
stream, which is what lets the chaos harness
(:mod:`repro.robustness.chaos`) assert exact token-identity and metric
reconciliation after a fault storm.

* :func:`retry_backoff_ms` — exponential backoff with deterministic
  per-(request, attempt) jitter, at most :data:`MAX_RETRIES` retries per
  request.  Only faults classified transient by
  :func:`repro.robustness.faults.is_transient` are retried; retried
  requests restart from a fresh prefill with the engine RNG replayed, so
  their output is token-identical to a clean run.
* :class:`CircuitBreaker` — a closed / open / half-open state machine over
  per-round acceptance and draft-fault rates.  While open the scheduler
  forces target-only decoding; after a cooldown the breaker half-opens and
  probes speculation for a few rounds before re-closing (hysteresis: the
  re-close bar is higher than the open bar).
* Shedding — when the oldest queued request has waited longer than
  ``max_queue_ms``, the scheduler rejects the youngest queued requests
  until half the queue bound remains
  (:meth:`~repro.serving.queue.AdmissionQueue.shed_newest`).

Deadlines are not a policy: every request carrying one is checked inside
its draft/verify round as well as while queued and between rounds.

See the "Resilience policies" section of ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from ..obs.metrics import get_registry

__all__ = [
    "retry_backoff_ms",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

# -- retry --------------------------------------------------------------
MAX_RETRIES = 2              #: retries per request after the first run
BASE_BACKOFF_MS = 20.0       #: delay before the first retry
BACKOFF_MULTIPLIER = 2.0     #: growth factor per further attempt
MAX_BACKOFF_MS = 500.0       #: cap on the exponential term
JITTER_MS = 5.0              #: deterministic de-synchronization spread

# -- circuit breaker ----------------------------------------------------
BREAKER_WINDOW = 4                    #: rolling window, in rounds
BREAKER_MIN_DRAFTED = 16              #: draft tokens required to judge acceptance
BREAKER_OPEN_BELOW_ACCEPTANCE = 0.15  #: open when window acceptance < this
BREAKER_OPEN_AT_FAULT_RATE = 1.0      #: open when faults/round >= this
BREAKER_COOLDOWN_ROUNDS = 3           #: open duration before probing
BREAKER_PROBE_ROUNDS = 2              #: half-open probes before judging
#: Probes must beat this to close; it is above the open bar (hysteresis).
BREAKER_RECLOSE_ABOVE_ACCEPTANCE = 0.3

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Gauge encoding of breaker states (``resilience.breaker_state``).
_STATE_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}
#: Counter-name suffix per state (dashes are not metric-name friendly).
_STATE_SUFFIX = {BREAKER_CLOSED: "closed", BREAKER_HALF_OPEN: "half_open",
                 BREAKER_OPEN: "opened"}


def _hash_unit(seed: int, tag: str) -> float:
    """Deterministic uniform in [0, 1) from (seed, tag), SHA-256 based."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / float(1 << 64)


def retry_backoff_ms(seed: int, request_id: str, attempt: int) -> float:
    """Server-ms delay before retry number ``attempt`` (0-based).

    A pure function of the jitter seed, the request id and the attempt
    index, so two chaos runs with the same seeds produce identical retry
    timelines regardless of scheduling order.  Attempt 0 is the first
    *retry* (the original run is not an attempt).
    """
    delay = min(BASE_BACKOFF_MS * BACKOFF_MULTIPLIER ** attempt, MAX_BACKOFF_MS)
    return delay + JITTER_MS * _hash_unit(seed, f"{request_id}:{attempt}")


class CircuitBreaker:
    """Closed / open / half-open state machine over speculation health.

    The breaker watches a rolling window of :data:`BREAKER_WINDOW` rounds.
    It opens when drafting is net-negative — window acceptance below
    :data:`BREAKER_OPEN_BELOW_ACCEPTANCE` (once at least
    :data:`BREAKER_MIN_DRAFTED` tokens were drafted) or draft faults at
    :data:`BREAKER_OPEN_AT_FAULT_RATE` per round or more — and, after
    :data:`BREAKER_COOLDOWN_ROUNDS` of target-only decoding, half-opens to
    probe speculation for :data:`BREAKER_PROBE_ROUNDS`.  Probes must clear
    :data:`BREAKER_RECLOSE_ABOVE_ACCEPTANCE` with no fault to close the
    breaker again; otherwise it re-opens for another cooldown.

    The scheduler calls :meth:`observe_round` exactly once per round with
    that round's draft/accept/fault totals, and consults
    :attr:`force_fallback` before stepping sessions.  State changes are
    published to the *current* metrics registry (gauge
    ``resilience.breaker_state`` plus ``resilience.breaker_*_total``
    counters) and recorded on :attr:`transitions` for exact reconciliation
    by the chaos harness.
    """

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.n_rounds = 0
        #: ``(round_index, from_state, to_state)`` per transition.
        self.transitions: List[Tuple[int, str, str]] = []
        self._window: List[Tuple[int, int, int]] = []   # (drafted, accepted, faults)
        self._rounds_open = 0
        self._probes: List[Tuple[int, int, int]] = []
        get_registry().gauge("resilience.breaker_state").set(_STATE_GAUGE[self.state])

    @property
    def force_fallback(self) -> bool:
        """True while the batch must decode target-only (breaker open)."""
        return self.state == BREAKER_OPEN

    def _transition(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        self.transitions.append((self.n_rounds, old, new_state))
        registry = get_registry()
        registry.gauge("resilience.breaker_state").set(_STATE_GAUGE[new_state])
        registry.counter("resilience.breaker_transitions_total").inc()
        registry.counter(
            f"resilience.breaker_{_STATE_SUFFIX[new_state]}_total"
        ).inc()

    @staticmethod
    def _acceptance(rows: List[Tuple[int, int, int]]) -> Tuple[int, float]:
        drafted = sum(r[0] for r in rows)
        accepted = sum(r[1] for r in rows)
        return drafted, (accepted / drafted if drafted else 0.0)

    def observe_round(self, n_drafted: int, n_accepted: int, n_faults: int) -> None:
        """Feed one scheduler round's speculation totals into the machine."""
        self.n_rounds += 1
        if self.state == BREAKER_OPEN:
            self._rounds_open += 1
            if self._rounds_open >= BREAKER_COOLDOWN_ROUNDS:
                self._probes = []
                self._transition(BREAKER_HALF_OPEN)
            return
        if self.state == BREAKER_HALF_OPEN:
            # Only rounds that actually speculated count as probes (an
            # idle round proves nothing about drafting health).
            if n_drafted == 0 and n_faults == 0:
                return
            self._probes.append((n_drafted, n_accepted, n_faults))
            if any(r[2] for r in self._probes):
                self._reopen()
                return
            if len(self._probes) >= BREAKER_PROBE_ROUNDS:
                _, acceptance = self._acceptance(self._probes)
                if acceptance > BREAKER_RECLOSE_ABOVE_ACCEPTANCE:
                    self._window = []
                    self._transition(BREAKER_CLOSED)
                else:
                    self._reopen()
            return
        # closed: maintain the rolling window and check the open bars
        self._window.append((n_drafted, n_accepted, n_faults))
        if len(self._window) > BREAKER_WINDOW:
            del self._window[0]
        if len(self._window) < BREAKER_WINDOW:
            return
        faults_per_round = sum(r[2] for r in self._window) / len(self._window)
        drafted, acceptance = self._acceptance(self._window)
        if faults_per_round >= BREAKER_OPEN_AT_FAULT_RATE or (
            drafted >= BREAKER_MIN_DRAFTED
            and acceptance < BREAKER_OPEN_BELOW_ACCEPTANCE
        ):
            self._reopen()

    def _reopen(self) -> None:
        self._rounds_open = 0
        self._window = []
        self._transition(BREAKER_OPEN)
