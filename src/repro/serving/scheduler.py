"""Continuous-batching scheduler over :class:`~repro.core.engine.AASDEngine`.

How batching works here
-----------------------
The engine keeps every piece of mutable decode state on the
:class:`~repro.core.engine.DecodeSession`, so the scheduler can interleave
many in-flight generations over one engine.  Each scheduler *round* makes
exactly two engine calls — :meth:`~repro.core.engine.AASDEngine.begin_batch`
for the requests it admits and
:meth:`~repro.core.engine.AASDEngine.step_batch` for every active session —
advancing each session by one draft-then-verify block; new requests join
at these block boundaries and finished ones retire without stalling the
rest — classic continuous batching.  Both calls return one outcome per
request, a session / :class:`~repro.core.engine.StepReport` or the
exception that request raised, so a fault retries or fails the request it
hit and nothing else.  A batch of one is a one-row round: there is no
second code path for it (``docs/serving.md``, "The model of batching").

Execution is batched.  Each round's prefills and verify forwards run as
one cu-seqlen-packed set of fused GEMMs and its draft steps, chain
positions and tree expansions alike, in ``(B, 1, D)`` lockstep — see
``docs/kernels.md`` — with outputs bitwise token-identical at every batch
width, greedy or sampled.  The scheduler holds no pricing code: it hands
its **server clock** to ``begin_batch`` / ``step_batch``, and the engine
charges it once per model call, where the call runs, at the one law of
:meth:`~repro.decoding.cost_model.CostModel.price` over that call's rows
(memory-bound batching: base cost paid once per call, per-token work
summed, a small increment per extra row).  A fallback step is the
one-row target ``step`` it runs.  Each session's own
:class:`~repro.decoding.metrics.DecodeRecord` is charged the one-row
price of every call made for it, so per-request attribution is identical
to sequential decoding — and with one request in the system the server
clock is charged the same additions, which the equivalence tests pin
down.

Backpressure and deadlines
--------------------------
Admission control is a bounded queue (:class:`~repro.serving.queue.AdmissionQueue`)
raising :class:`~repro.errors.AdmissionError` when full or when the
request id is already queued, in the batch or waiting out a retry.
Deadlines are relative simulated-ms budgets checked while queued, inside
every round and after it: each session's remaining budget goes into
:meth:`~repro.core.engine.AASDEngine.step_batch`, so a request expiring
mid-round stops before its verify forward, and an expired request retires
with the tokens it committed so far.

Resilience
----------
Three switches on :class:`ServingConfig` layer the policies of
:mod:`repro.serving.resilience` onto the round loop; all are off by
default, and a fault then fails the one request it hit.  With ``retry``,
a session that dies on a *transient* fault (per
:func:`repro.robustness.faults.is_transient`) is dropped and re-enqueued
after a deterministic backoff: the retry restarts from a fresh prefill
and, because the engine derives each request's random stream from its
``request_id``, redraws exactly what the failed attempt drew — the
retried output is token-identical to a clean run under greedy and
sampling alike, and its batch-mates' outputs do not move.  With
``breaker``, a :class:`~repro.serving.resilience.CircuitBreaker` watches
per-round acceptance/fault rates and forces the whole batch target-only
while open.  With ``max_queue_ms``, queued requests are shed under
queue-time pressure.

Observability
-------------
Every round runs inside a ``schedule`` span (feeding the
``span_ms.schedule`` histogram when tracing is enabled with a registry),
each phase emits one ``request`` marker span per request it serves
(tagged with the request id and the phase), and the registry carries
``serving.queue_depth`` / ``serving.batch_occupancy`` /
``serving.kv_tokens`` gauges plus
``serving.requests_*_total`` counters.  Retired sessions fold their
KV-arena accounting into ``scheduler.memory`` (surfaced as
``bytes_copied`` / ``arena_grows`` / ``peak_cache_tokens`` on the
:class:`ServingReport`); see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.engine import AASDEngine, DecodeSession, StepReport
from ..core.kv_arena import ArenaStats
from ..data.tasks import MultimodalSample
from ..decoding.metrics import DecodeRecord
from ..errors import AdmissionError, ServingError
from ..obs.logsetup import get_logger, log_exception
from ..obs.metrics import exact_quantile, get_registry
from ..obs.profile import summarize_latencies
from ..robustness.faults import is_transient
from ..utils.timing import SimulatedClock
from .queue import AdmissionQueue
from .resilience import MAX_RETRIES, CircuitBreaker, retry_backoff_ms
from .request import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeHandle,
    ServeRequest,
    ServeResult,
    expiry_ms,
)

__all__ = [
    "ServingConfig",
    "ServingReport",
    "ContinuousBatchingScheduler",
    "serve_requests",
]

logger = get_logger(__name__)


@dataclass(frozen=True)
class ServingConfig:
    """Scheduler knobs: batch width, queue bound, resilience switches.

    The policy thresholds behind ``retry``, ``breaker`` and
    ``max_queue_ms`` are the constants of :mod:`repro.serving.resilience`.
    """

    max_batch_size: int = 8     #: sessions advanced per round
    max_queue_depth: int = 64   #: admission-control bound (backpressure)
    retry: bool = False         #: retry transient faults after a backoff
    retry_seed: int = 0         #: backoff jitter seed
    breaker: bool = False       #: speculation circuit breaker
    #: shed the youngest queued requests once the oldest has waited this
    #: long (``None``: never shed)
    max_queue_ms: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the scheduler knobs."""
        if self.max_batch_size <= 0:
            raise ServingError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_queue_depth <= 0:
            raise ServingError(f"max_queue_depth must be positive, got {self.max_queue_depth}")
        if self.max_queue_ms is not None and self.max_queue_ms <= 0:
            raise ServingError(f"max_queue_ms must be positive, got {self.max_queue_ms}")


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one :func:`serve_requests` run."""

    results: Tuple[ServeResult, ...]        #: one per request, input order
    total_sim_ms: float                     #: server clock total
    sim_by_category: Dict[str, float]       #: server ms per phase
    n_rounds: int                           #: scheduler rounds executed
    max_batch_occupancy: int                #: widest batch observed
    bytes_copied: int = 0                   #: KV-arena bytes memcpy'd, all sessions
    arena_grows: int = 0                    #: KV-arena buffer reallocations
    peak_cache_tokens: int = 0              #: longest per-session KV seen
    n_retries: int = 0                      #: transient-fault retries scheduled
    n_shed: int = 0                         #: requests shed under queue pressure
    #: breaker ``(round, from, to)`` transitions, in order (empty = no breaker)
    breaker_transitions: Tuple[Tuple[int, str, str], ...] = ()
    #: per-metric latency digests on the server clock:
    #: ``{"ttft_ms"|"tpot_ms"|"e2e_ms": {count, mean, p50, p95, p99}}``
    latency_ms: Dict[str, Dict[str, float]] = dataclasses_field(default_factory=dict)
    #: committed tokens per target forward across all requests (prefill and
    #: fallback forwards included; 0.0 when nothing ran) — the headline
    #: number tree speculation moves.
    accepted_per_target_forward: float = 0.0
    block_efficiency_p50: float = 0.0       #: median tokens emitted per verify block
    block_efficiency_p95: float = 0.0       #: p95 tokens emitted per verify block

    @property
    def total_tokens(self) -> int:
        """Tokens committed across all requests (partial outputs included)."""
        return sum(r.record.n_tokens for r in self.results if r.record is not None)

    @property
    def tokens_per_s(self) -> float:
        """Aggregate decoding speed on the server's simulated clock."""
        if self.total_sim_ms <= 0:
            return 0.0
        return self.total_tokens / (self.total_sim_ms / 1000.0)

    def count(self, status: str) -> int:
        """Number of requests that ended in ``status``."""
        return sum(1 for r in self.results if r.status == status)

    def summary(self) -> Dict[str, object]:
        """Flat dict for logging / table rendering."""
        return {
            "n_requests": len(self.results),
            "completed": self.count(STATUS_COMPLETED),
            "timeout": self.count(STATUS_TIMEOUT),
            "rejected": self.count(STATUS_REJECTED),
            "failed": self.count(STATUS_FAILED),
            "total_tokens": self.total_tokens,
            "total_sim_ms": self.total_sim_ms,
            "tokens_per_s": self.tokens_per_s,
            "n_rounds": self.n_rounds,
            "max_batch_occupancy": self.max_batch_occupancy,
            "bytes_copied": self.bytes_copied,
            "arena_grows": self.arena_grows,
            "peak_cache_tokens": self.peak_cache_tokens,
            "n_retries": self.n_retries,
            "n_shed": self.n_shed,
            "breaker_transitions": len(self.breaker_transitions),
            "accepted_per_target_forward": self.accepted_per_target_forward,
            "block_efficiency_p50": self.block_efficiency_p50,
            "block_efficiency_p95": self.block_efficiency_p95,
            **{
                f"{metric}_{stat}": value
                for metric, digest in sorted(self.latency_ms.items())
                for stat, value in sorted(digest.items())
                if stat.startswith("p")
            },
        }


@dataclass
class _Active:
    """Scheduler-internal pairing of a handle with its live session."""

    handle: ServeHandle
    session: DecodeSession
    started_ms: float   #: server clock at admission
    n_faults_seen: int = 0   #: record.n_draft_faults already reported to the breaker
    #: server clock when the first token was committed (after the
    #: admission's prefill charge); None only for sessions that never prefilled.
    first_token_ms: Optional[float] = None


class ContinuousBatchingScheduler:
    """Interleaves many :class:`DecodeSession` objects over one engine.

    Drive it with :meth:`submit` + :meth:`run_until_idle` (or one
    :meth:`run_round` at a time); the synchronous :func:`serve_requests`
    facade does both for offline batches of requests.
    """

    def __init__(self, engine: AASDEngine, config: Optional[ServingConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServingConfig()
        self.queue = AdmissionQueue(self.config.max_queue_depth)
        self.clock = SimulatedClock()   #: server simulated clock (milliseconds)
        self.n_rounds = 0
        self.max_batch_occupancy = 0
        self.memory = ArenaStats()   #: KV-arena accounting over retired sessions
        self._active: List[_Active] = []
        #: Circuit breaker (None unless ``config.breaker`` is on).
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker() if self.config.breaker else None
        )
        self.n_retries = 0   #: transient-fault retries scheduled, lifetime
        self.n_shed = 0      #: requests shed under queue pressure, lifetime
        #: raw per-request latency samples (server-clock ms) keyed
        #: ``ttft_ms`` / ``tpot_ms`` / ``e2e_ms``; digested into the report.
        self.latency_samples: Dict[str, List[float]] = {}
        self._retry_attempts: Dict[str, int] = {}   #: retries consumed per request id
        #: ``(ready_ms, handle)`` for requests waiting out their backoff.
        self._backoff: List[Tuple[float, ServeHandle]] = []

    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        """Current server simulated time in milliseconds."""
        return self.clock.total

    @property
    def n_active(self) -> int:
        """Sessions currently in the batch."""
        return len(self._active)

    @property
    def idle(self) -> bool:
        """True when nothing is queued, in flight, or waiting out a backoff."""
        return not self._active and len(self.queue) == 0 and not self._backoff

    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> ServeHandle:
        """Admit one request; raises :class:`AdmissionError` when the queue is full.

        An id still in the system — queued, in the batch, or waiting out a
        retry backoff — is refused as a duplicate; the id of a request
        that already finished may be submitted again.
        """
        handle = self.queue.submit(request, now_ms=self.now_ms)
        get_registry().counter("serving.requests_submitted_total").inc()
        return handle

    def _resolve(self, handle: ServeHandle, status: str, *,
                 record: Optional[DecodeRecord] = None,
                 error: Optional[str] = None,
                 started_ms: Optional[float] = None,
                 first_token_ms: Optional[float] = None) -> None:
        """Retire a request with a terminal status (updates counters)."""
        retry_count = self._retry_attempts.pop(handle.request_id, 0)
        self.queue.release(handle.request_id)
        handle.resolve(ServeResult(
            request_id=handle.request_id,
            status=status,
            record=record,
            error=error,
            submitted_ms=handle.submitted_ms,
            started_ms=started_ms,
            finished_ms=self.now_ms,
        ))
        self._record_latency(handle, record, first_token_ms)
        get_registry().counter(f"serving.requests_{status}_total").inc()
        if status != STATUS_COMPLETED:
            logger.warning(
                "request %s retired: %s",
                handle.request_id,
                status,
                extra={"event": f"request_{status}", "request_id": handle.request_id,
                       "error": error, "retry_count": retry_count},
            )

    def _record_latency(self, handle: ServeHandle,
                        record: Optional[DecodeRecord],
                        first_token_ms: Optional[float]) -> None:
        """Digest one retired request's server-clock latencies.

        TTFT = submit -> first committed token (queue wait plus the
        round's batched prefill); TPOT = steady-state ms per token after
        the first; E2E = submit -> retirement.  Every retirement
        contributes E2E; only requests that actually committed tokens
        contribute TTFT (and TPOT needs at least two).  Each sample feeds
        three sinks: the raw lists digested into the report, registry
        histograms (``serving.ttft_ms`` / ``serving.tpot_ms`` /
        ``serving.e2e_ms``), and a zero-duration ``request_latency`` span
        so exported traces carry per-request latencies for offline
        ``summarize`` runs.
        """
        samples: Dict[str, float] = {"e2e_ms": self.now_ms - handle.submitted_ms}
        if first_token_ms is not None and record is not None and record.n_tokens > 0:
            samples["ttft_ms"] = first_token_ms - handle.submitted_ms
            if record.n_tokens > 1:
                samples["tpot_ms"] = (
                    (self.now_ms - first_token_ms) / (record.n_tokens - 1)
                )
        registry = get_registry()
        for metric, value in samples.items():
            self.latency_samples.setdefault(metric, []).append(value)
            registry.histogram(f"serving.{metric}").observe(value)
        with self.engine.tracer.span("request_latency",
                                     request_id=handle.request_id, **samples):
            pass

    # ------------------------------------------------------------------
    def _expire_queued(self) -> None:
        """Time out queued requests whose deadline passed before admission."""
        for handle in self.queue.expire(self.now_ms):
            self._resolve(handle, STATUS_TIMEOUT,
                          error="deadline expired while queued")

    # ------------------------------------------------------------------
    # Resilience: retry scheduling, backoff waits, load shedding.
    # ------------------------------------------------------------------
    def _maybe_retry(self, handle: ServeHandle, exc: BaseException) -> bool:
        """Schedule a transient-fault retry; False means the fault is terminal.

        A retry discards the failed attempt entirely (partial tokens,
        record, caches) and re-enqueues the request after a deterministic
        backoff — re-admission re-derives the request's random stream
        from its id, so the restarted decode replays the original token
        stream.  Not retried: persistent faults, exhausted budgets, and
        backoffs that would land past the request's deadline.
        """
        if not self.config.retry or not is_transient(exc):
            return False
        attempts = self._retry_attempts.get(handle.request_id, 0)
        if attempts >= MAX_RETRIES:
            return False
        ready_ms = self.now_ms + retry_backoff_ms(
            self.config.retry_seed, handle.request_id, attempts)
        limit = expiry_ms(handle)
        if limit is not None and ready_ms >= limit:
            return False
        self._retry_attempts[handle.request_id] = attempts + 1
        self.n_retries += 1
        self._backoff.append((ready_ms, handle))
        registry = get_registry()
        registry.counter("resilience.retries_total").inc()
        registry.gauge("resilience.pending_retries").set(len(self._backoff))
        log_exception(logger, "request_retry", exc,
                      request_id=handle.request_id,
                      retry_count=attempts + 1,
                      ready_ms=ready_ms)
        return True

    def _requeue_ready_backoffs(self) -> None:
        """Move retries whose backoff elapsed back into the admission queue."""
        if not self._backoff:
            return
        still: List[Tuple[float, ServeHandle]] = []
        for ready_ms, handle in self._backoff:
            if ready_ms <= self.now_ms:
                self.queue.requeue(handle)
            else:
                still.append((ready_ms, handle))
        self._backoff = still
        get_registry().gauge("resilience.pending_retries").set(len(self._backoff))

    def _advance_to_next_backoff(self) -> None:
        """Idle-wait (on the simulated clock) for the earliest pending retry.

        Only called when retries are the *only* remaining work; the wait
        is charged to the ``backoff`` category so reports show time spent
        stalled versus decoding.
        """
        earliest = min(ready for ready, _ in self._backoff)
        if earliest > self.now_ms:
            self.clock.charge(earliest - self.now_ms, "backoff")
        self._requeue_ready_backoffs()

    def _shed_queued(self) -> None:
        """Reject the youngest queued requests under queue-time pressure.

        Fires when the oldest waiter has queued past ``max_queue_ms`` and
        drains the queue tail down to half its bound, keeping the oldest
        work, closest to service.
        """
        max_queue_ms = self.config.max_queue_ms
        if max_queue_ms is None:
            return
        wait = self.queue.oldest_wait_ms(self.now_ms)
        if wait is None or wait <= max_queue_ms:
            return
        registry = get_registry()
        for handle in self.queue.shed_newest(self.config.max_queue_depth // 2):
            self.n_shed += 1
            registry.counter("resilience.requests_shed_total").inc()
            self._resolve(
                handle, STATUS_REJECTED,
                error=f"shed under queue pressure (reject-newest, oldest wait {wait:.0f}ms)",
            )

    def _admit(self, span) -> None:
        """Fill free batch slots from the queue, FIFO (batched prefill).

        Each request keeps its own speculation depth: one batch mixes
        depths, since the draft lane grows walks of any depth in lockstep.
        The engine charges the server clock for the admission's prefill.
        """
        handles = self.queue.pop_ready(self.config.max_batch_size - len(self._active))
        if not handles:
            return

        started_ms = self.now_ms
        admitted: List[_Active] = []
        tracer = self.engine.tracer
        for handle in handles:
            with tracer.span("request", request_id=handle.request_id, phase="prefill"):
                pass
        # One cu-seqlen-packed prefill forward for the whole admission
        # (docs/kernels.md); begin_batch returns a session or the
        # exception per request, so a fault fails (or retries) only the
        # request that raised it.
        outcomes = self.engine.begin_batch(
            [h.request.sample for h in handles],
            records=[DecodeRecord() for _ in handles],
            max_new_tokens=[h.request.max_new_tokens for h in handles],
            gammas=[h.request.gamma for h in handles],
            request_ids=[h.request_id for h in handles],
            clock=self.clock,
        )
        for handle, outcome in zip(handles, outcomes):
            if isinstance(outcome, Exception):
                if self._maybe_retry(handle, outcome):
                    continue
                log_exception(logger, "prefill_failed", outcome,
                              request_id=handle.request_id,
                              retry_count=self._retry_attempts.get(handle.request_id, 0))
                self._resolve(handle, STATUS_FAILED,
                              error=f"prefill failed: {outcome}",
                              started_ms=started_ms)
                continue
            entry = _Active(handle, outcome, started_ms)
            self._active.append(entry)
            admitted.append(entry)
        if admitted:
            span.set_attr("n_admitted", len(admitted))
            # begin_batch committed each session's first token; on the
            # server clock that token exists once the prefill is charged.
            for entry in admitted:
                entry.first_token_ms = self.now_ms

    def _step_budget_ms(self, entry: _Active) -> Optional[float]:
        """Remaining deadline budget to pass into the engine step (or None)."""
        limit = expiry_ms(entry.handle)
        if limit is None:
            return None
        return limit - self.now_ms

    def _step_batch(self, span) -> None:
        """Advance every active session one block (the engine charges the clock).

        This is also where deadlines and the policies bite: per-session
        deadline budgets let the engine expire a request before its verify
        forward, the breaker's ``force_fallback`` flips the whole batch
        target-only, and with ``retry`` on, sessions dying on transient
        faults are dropped for retry instead of failing.
        """
        tracer = self.engine.tracer
        force_fallback = self.breaker is not None and self.breaker.force_fallback
        stepped: List[Tuple[_Active, StepReport]] = []
        removed: List[_Active] = []
        n_escaped_faults = 0
        n_record_faults = 0
        eligible = [e for e in self._active if not e.session.finished]
        if not eligible:
            return
        for entry in eligible:
            with tracer.span("request", request_id=entry.handle.request_id, phase="step"):
                pass
        # One lockstep draft + one cu-seqlen-packed verify forward for the
        # whole round (docs/kernels.md); step_batch returns a report or
        # the exception per session.  A failure of the round itself (the
        # shared verify forward) is attributed to every session, each of
        # which then goes through the same retry/fail path.
        try:
            outcomes = self.engine.step_batch(
                [e.session for e in eligible],
                budgets_ms=[self._step_budget_ms(e) for e in eligible],
                force_fallback=force_fallback,
                clock=self.clock,
            )
        except Exception as exc:
            log_exception(logger, "step_fault", exc, batch=len(eligible))
            outcomes = [exc] * len(eligible)
        for entry, outcome in zip(eligible, outcomes):
            if isinstance(outcome, Exception):
                n_escaped_faults += 1
                n_record_faults += (
                    entry.session.record.n_draft_faults - entry.n_faults_seen
                )
                removed.append(entry)
                self.memory.add(entry.session.memory_stats())
                if self._maybe_retry(entry.handle, outcome):
                    continue
                log_exception(logger, "step_failed", outcome,
                              request_id=entry.handle.request_id,
                              retry_count=self._retry_attempts.get(entry.handle.request_id, 0))
                self._resolve(entry.handle, STATUS_FAILED,
                              record=self.engine.finish(entry.session),
                              error=f"step failed: {outcome}",
                              started_ms=entry.started_ms,
                              first_token_ms=entry.first_token_ms)
                continue
            report = outcome
            n_record_faults += (
                entry.session.record.n_draft_faults - entry.n_faults_seen
            )
            entry.n_faults_seen = entry.session.record.n_draft_faults
            stepped.append((entry, report))
            if report.kind == "expired":
                # Mid-round deadline: the engine dropped the speculated
                # block before the verify; retire with the partial output
                # now instead of letting it occupy a slot to round end.
                removed.append(entry)
                self.memory.add(entry.session.memory_stats())
                self._resolve(entry.handle, STATUS_TIMEOUT,
                              record=self.engine.finish(entry.session),
                              error="deadline expired mid-round",
                              started_ms=entry.started_ms,
                              first_token_ms=entry.first_token_ms)
        for entry in removed:
            self._active.remove(entry)
        reports = [r for _, r in stepped]
        if self.breaker is not None and (stepped or n_escaped_faults):
            self.breaker.observe_round(
                n_drafted=sum(r.n_draft_forwards for r in reports),
                n_accepted=sum(r.n_accepted for r in reports),
                n_faults=n_escaped_faults + n_record_faults,
            )
        if not reports:
            return
        kv_tokens = sum(e.session.kv_tokens for e in self._active)
        span.set_attr("kv_tokens", kv_tokens)
        get_registry().gauge("serving.kv_tokens").set(kv_tokens)

        span.set_attr("batch_size", len(reports))
        occupancy = len(reports)
        self.max_batch_occupancy = max(self.max_batch_occupancy, occupancy)
        get_registry().gauge("serving.batch_occupancy").set(occupancy)

    def _retire(self) -> None:
        """Resolve finished and deadline-expired sessions (batch keeps going)."""
        now = self.now_ms
        still: List[_Active] = []
        for entry in self._active:
            session, handle = entry.session, entry.handle
            if session.finished:
                self.memory.add(session.memory_stats())
                self._resolve(handle, STATUS_COMPLETED,
                              record=self.engine.finish(session),
                              started_ms=entry.started_ms,
                              first_token_ms=entry.first_token_ms)
            else:
                limit = expiry_ms(handle)
                if limit is not None and now >= limit:
                    # Mid-batch expiry: keep the partial generation.
                    self.memory.add(session.memory_stats())
                    self._resolve(handle, STATUS_TIMEOUT,
                                  record=self.engine.finish(session),
                                  error="deadline expired mid-batch",
                                  started_ms=entry.started_ms,
                                  first_token_ms=entry.first_token_ms)
                else:
                    still.append(entry)
        self._active = still

    # ------------------------------------------------------------------
    def run_round(self) -> bool:
        """One scheduler round; returns False when there was nothing to do.

        A round: requeue elapsed backoffs -> expire queued deadlines ->
        shed under queue pressure -> admit into free slots (batched
        prefill) -> advance every active session one block (batched
        draft/verify) -> retire finished / expired / failed sessions.
        When pending retries are the only remaining work, the round
        idle-waits the simulated clock to the earliest backoff expiry
        (charged as ``backoff``) before admitting.
        """
        retries_before, shed_before = self.n_retries, self.n_shed
        self._requeue_ready_backoffs()
        self._expire_queued()
        self._shed_queued()
        if self.idle:
            return False
        if not self._active and len(self.queue) == 0 and self._backoff:
            self._advance_to_next_backoff()
        with self.engine.tracer.span("schedule", round=self.n_rounds) as span:
            started_ms = self.now_ms
            self._admit(span)
            self._step_batch(span)
            span.add_sim_ms(self.now_ms - started_ms)
            self._retire()
            if self.breaker is not None:
                span.set_attr("breaker_state", self.breaker.state)
            if self.n_retries > retries_before:
                span.set_attr("n_retried", self.n_retries - retries_before)
            if self.n_shed > shed_before:
                span.set_attr("n_shed", self.n_shed - shed_before)
        self.n_rounds += 1
        get_registry().counter("serving.rounds_total").inc()
        return True

    def run_until_idle(self, max_rounds: Optional[int] = None) -> int:
        """Run rounds until no work remains; returns rounds executed.

        ``max_rounds`` is a safety valve for tests; exceeding it raises
        :class:`ServingError` (it indicates a scheduler bug, since every
        round makes progress on some session).
        """
        executed = 0
        while self.run_round():
            executed += 1
            if max_rounds is not None and executed > max_rounds:
                raise ServingError(f"scheduler still busy after {max_rounds} rounds")
        return executed


def _normalize(requests: Iterable[Union[ServeRequest, MultimodalSample]]) -> List[ServeRequest]:
    """Wrap raw samples as requests with generated ids."""
    normalized: List[ServeRequest] = []
    for i, item in enumerate(requests):
        if isinstance(item, ServeRequest):
            normalized.append(item)
        else:
            normalized.append(ServeRequest(request_id=f"req-{i:03d}", sample=item))
    return normalized


def serve_requests(
    engine: AASDEngine,
    requests: Iterable[Union[ServeRequest, MultimodalSample]],
    config: Optional[ServingConfig] = None,
    *,
    scheduler: Optional[ContinuousBatchingScheduler] = None,
) -> ServingReport:
    """Serve a batch of requests to completion and report aggregate throughput.

    The synchronous facade for offline runs: submits every request
    (running scheduler rounds whenever admission control pushes back),
    drains the system, and returns one :class:`ServeResult` per request in
    input order plus server-clock throughput.  Raw
    :class:`~repro.data.tasks.MultimodalSample` items are auto-wrapped as
    requests with generated ids.

    Pass a fresh ``scheduler`` to inspect its state (clock, memory,
    breaker, gauges) after the run — ``engine`` and ``config`` are then
    taken from it and the positional arguments must agree.
    """
    if scheduler is None:
        scheduler = ContinuousBatchingScheduler(engine, config)
    elif scheduler.engine is not engine:
        raise ServingError("serve_requests: scheduler was built for a different engine")
    normalized = _normalize(requests)
    handles: Dict[str, ServeHandle] = {}
    early: Dict[str, ServeResult] = {}
    for request in normalized:
        # Backpressure: when the queue is full, run rounds until a slot
        # frees instead of dropping the request (offline semantics).
        while scheduler.queue.free == 0 and scheduler.run_round():
            pass
        try:
            handles[request.request_id] = scheduler.submit(request)
        except AdmissionError as exc:
            early[request.request_id] = ServeResult(
                request_id=request.request_id,
                status=STATUS_REJECTED,
                error=str(exc),
                submitted_ms=scheduler.now_ms,
            )
            get_registry().counter("serving.requests_rejected_total").inc()
    scheduler.run_until_idle()

    results = []
    for request in normalized:
        if request.request_id in early:
            results.append(early[request.request_id])
        else:
            results.append(handles[request.request_id].result(timeout=0))
    records = [r.record for r in results if r.record is not None]
    n_forwards = sum(r.n_target_forwards for r in records)
    block_emits = [float(b.n_emitted) for r in records for b in r.blocks]
    return ServingReport(
        results=tuple(results),
        total_sim_ms=scheduler.clock.total,
        sim_by_category=dict(scheduler.clock.by_category),
        n_rounds=scheduler.n_rounds,
        max_batch_occupancy=scheduler.max_batch_occupancy,
        bytes_copied=scheduler.memory.bytes_copied,
        arena_grows=scheduler.memory.grow_events,
        peak_cache_tokens=scheduler.memory.peak_tokens,
        n_retries=scheduler.n_retries,
        n_shed=scheduler.n_shed,
        breaker_transitions=(
            tuple(scheduler.breaker.transitions) if scheduler.breaker else ()
        ),
        latency_ms=summarize_latencies(scheduler.latency_samples),
        accepted_per_target_forward=(
            sum(r.n_tokens for r in records) / n_forwards if n_forwards else 0.0
        ),
        block_efficiency_p50=(
            exact_quantile(block_emits, 0.50) if block_emits else 0.0
        ),
        block_efficiency_p95=(
            exact_quantile(block_emits, 0.95) if block_emits else 0.0
        ),
    )
