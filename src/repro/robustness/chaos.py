"""Chaos harness: seeded fault storms against the serving layer.

A *storm* is a deterministic fault schedule (draft crashes, latency
injection, queue floods, checkpoint corruption on reload) driven through
:func:`repro.serving.scheduler.serve_requests`, followed by a battery of
invariant checks:

* **liveness** — every submitted handle resolved to a terminal status and
  the scheduler drained completely (no hung sessions, empty queue, no
  pending backoffs);
* **losslessness** — every surviving output is token-identical to a
  fault-free sequential decode of the same request (completed requests
  match exactly, partial outputs are exact prefixes), which is the
  serving-tier extension of the engine's AR-identical fallback guarantee;
* **reconciliation** — retry / shed / breaker counters in the metrics
  registry agree exactly with the scheduler's own report, so dashboards
  can be trusted under failure;
* **no leaks** — all retired sessions folded their KV-arena accounting
  into the scheduler and none remain holding cache memory.

Each storm runs against a *fresh* :class:`~repro.obs.metrics.MetricsRegistry`
(the process registry is swapped in and restored afterwards), so the
reconciliation checks are exact rather than delta-based.

Everything is seeded: the afflicted request set, the fault step indices,
and the retry jitter all derive from the storm seed via SHA-256, so a
failing storm replays identically under a debugger.

Layering note: this module lives in the method layer but *drives* the
application-layer serving package, so every ``repro.serving`` import is
function-local (the sanctioned downward-only import direction is
preserved at module granularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import AASDEngine, AASDEngineConfig
from ..errors import ChaosError, CheckpointError
from ..nn.serialization import load_state_dict, save_state_dict
from ..obs.metrics import MetricsRegistry, set_registry
from .faults import FaultyDraftHead, corrupt_checkpoint

__all__ = [
    "ChaosWorld",
    "StormProfile",
    "StormReport",
    "ChaosReport",
    "default_profiles",
    "clean_token_ids",
    "run_storm",
    "run_chaos",
    "assert_chaos",
]

#: Engine RNG seed used for both storm and oracle runs (greedy decoding
#: consumes no draws, but the seeds must still match for the guarantee to
#: be about determinism rather than luck).
ENGINE_SEED = 7

#: Speculation depth shared by storm and oracle engines.
GAMMA = 3


@dataclass
class ChaosWorld:
    """The model stack a storm runs against (a healthy baseline).

    ``samples`` are reused round-robin when a profile asks for more
    requests than there are samples; the oracle is computed per *sample*,
    so duplicated requests share their expected output.
    """

    target: object                  #: MiniLlava target model
    head: object                    #: healthy AASDDraftHead
    tokenizer: object               #: WordTokenizer
    cost_model: object              #: CostModel for simulated pricing
    samples: Sequence[object]       #: MultimodalSample pool
    max_new_tokens: int = 20        #: per-request generation budget


@dataclass(frozen=True)
class StormProfile:
    """One deterministic fault storm, fully described by plain values.

    The profile stays free of serving-layer types on purpose (layering:
    this module may only import :mod:`repro.serving` lazily); its
    resilience switches become ``ServingConfig`` fields inside
    :func:`run_storm`, and the policy thresholds are the constants of
    :mod:`repro.serving.resilience`.
    """

    name: str
    n_requests: int = 16
    seed: int = 0
    # -- draft-head fault injection ------------------------------------
    fault_mode: Optional[str] = None         #: FaultyDraftHead mode (None = healthy)
    request_fault_rate: Optional[float] = None  #: per-request storm schedule
    fault_transient: bool = True             #: transient flag for mode="raise"
    fail_every: Optional[int] = None         #: global schedule (every k-th step)
    fallback_on_fault: bool = True           #: engine-level degradation switch
    max_draft_faults: int = 3                #: engine target-only threshold
    # -- serving shape --------------------------------------------------
    max_batch_size: int = 4
    max_queue_depth: int = 64
    deadline_ms: Optional[float] = None      #: per-request relative deadline
    # -- resilience switches (retry jitter is seeded by ``seed``) -------
    use_retry: bool = False
    use_breaker: bool = False
    max_queue_ms: Optional[float] = None     #: shed pressure threshold (None = no shedding)
    # -- checkpoint corruption on reload -------------------------------
    corrupt_reload: Optional[str] = None     #: "truncate" / "byteflip" (None = skip)


@dataclass(frozen=True)
class StormReport:
    """Outcome of one storm: counts, availability, and invariant verdicts."""

    profile: str
    n_requests: int
    n_completed: int
    n_timeout: int
    n_rejected: int
    n_failed: int
    n_retries: int
    n_shed: int
    availability: float                      #: completed-within-deadline fraction
    sim_ms: float
    total_tokens: int
    token_identical: bool
    breaker_transitions: Tuple[Tuple[int, str, str], ...]
    checkpoint_error: Optional[str]          #: detected corruption (reload storms)
    violations: Tuple[str, ...]              #: empty = all invariants green

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dump (for the chaos CI artifact)."""
        return {
            "profile": self.profile,
            "n_requests": self.n_requests,
            "n_completed": self.n_completed,
            "n_timeout": self.n_timeout,
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            "n_retries": self.n_retries,
            "n_shed": self.n_shed,
            "availability": self.availability,
            "sim_ms": self.sim_ms,
            "total_tokens": self.total_tokens,
            "token_identical": self.token_identical,
            "breaker_transitions": [list(t) for t in self.breaker_transitions],
            "checkpoint_error": self.checkpoint_error,
            "violations": list(self.violations),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Suite-level aggregate over all storms."""

    storms: Tuple[StormReport, ...]

    @property
    def passed(self) -> bool:
        """True when every storm passed every invariant."""
        return all(storm.passed for storm in self.storms)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dump (for the chaos CI artifact)."""
        return {
            "passed": self.passed,
            "storms": [storm.to_dict() for storm in self.storms],
        }


def default_profiles(quick: bool = False, seed: int = 0) -> Tuple[StormProfile, ...]:
    """The four canonical storms (scaled down with ``quick=True``).

    1. ``transient-draft`` — 20% of requests crash their draft head with a
       *transient* fault and the engine-level fallback is off, so survival
       depends entirely on the scheduler's retry path.
    2. ``latency-spike``   — every draft step raises a latency fault; the
       circuit breaker must flip the batch target-only and keep flapping
       through half-open probes (the engine absorbs each fault in place).
    3. ``queue-flood``     — arrivals outpace a deliberately tiny batch and
       queue, deadlines are tight, and the shed policy must reject the
       overflow instead of letting everything time out.
    4. ``corrupt-reload``  — a corrupted head checkpoint must be *detected*
       at reload (surfacing as CheckpointError), after which serving
       proceeds on the healthy weights.
    """
    n = 8 if quick else 16
    return (
        StormProfile(
            name="transient-draft",
            n_requests=n,
            seed=seed,
            fault_mode="raise",
            request_fault_rate=0.2,
            fault_transient=True,
            fallback_on_fault=False,
            deadline_ms=40000.0,
            use_retry=True,
        ),
        StormProfile(
            name="latency-spike",
            n_requests=max(4, n // 2),
            seed=seed,
            fault_mode="latency",
            fail_every=1,
            fallback_on_fault=True,
            max_draft_faults=10_000,   # the breaker, not the engine, must react
            use_breaker=True,
        ),
        StormProfile(
            name="queue-flood",
            n_requests=n,
            seed=seed,
            max_batch_size=2,
            max_queue_depth=4,
            deadline_ms=2500.0,
            max_queue_ms=600.0,
        ),
        StormProfile(
            name="corrupt-reload",
            n_requests=max(4, n // 2),
            seed=seed,
            corrupt_reload="byteflip",
        ),
    )


# ---------------------------------------------------------------------------
def clean_token_ids(world: ChaosWorld) -> List[List[int]]:
    """Fault-free sequential oracle: expected tokens per world sample.

    Uses the same engine seed/gamma as every storm run, so any divergence
    a storm produces is attributable to the faults, not to configuration.
    """
    engine = AASDEngine(
        world.target, world.head, world.tokenizer, world.cost_model,
        AASDEngineConfig(gamma=GAMMA, max_new_tokens=world.max_new_tokens),
        rng=np.random.default_rng(ENGINE_SEED),
    )
    return [list(engine.decode(sample).token_ids) for sample in world.samples]


def _storm_head(world: ChaosWorld, profile: StormProfile):
    """The (possibly fault-wrapped) draft head for this storm."""
    if profile.fault_mode is None:
        return world.head
    return FaultyDraftHead(
        world.head,
        mode=profile.fault_mode,
        fail_every=profile.fail_every or 1,
        seed=profile.seed,
        request_fault_rate=profile.request_fault_rate,
        per_request=profile.request_fault_rate is not None,
        transient=profile.fault_transient,
    )


def _corrupt_reload(world: ChaosWorld, profile: StormProfile,
                    work_dir: Path) -> Optional[str]:
    """Save, corrupt, and reload the head checkpoint; return the detection.

    Returns the CheckpointError message (the *expected* outcome — silent
    corruption would be the failure) or None when the reload succeeded,
    which :func:`run_storm` records as an invariant violation.  The
    message names the checkpoint relative to ``work_dir``, so equal
    storms report equal messages wherever their scratch directory is.
    """
    name = f"chaos-{profile.name}-head.npz"
    path = work_dir / name
    save_state_dict(path, world.head.state_dict(), meta={"storm": profile.name})
    corrupt_checkpoint(path, mode=profile.corrupt_reload, seed=profile.seed)
    try:
        load_state_dict(path, verify=True)
    except CheckpointError as exc:
        return str(exc).replace(str(path), name)
    return None


def _check_identity(results, oracle_by_id: Dict[str, List[int]]) -> List[str]:
    """Losslessness: completed == oracle exactly, partial == oracle prefix."""
    violations: List[str] = []
    for result in results:
        if result.record is None:
            continue
        tokens = list(result.record.token_ids)
        expected = oracle_by_id[result.request_id]
        if result.status == "completed":
            if tokens != expected:
                violations.append(
                    f"{result.request_id}: completed output diverged from oracle"
                )
        elif tokens != expected[: len(tokens)]:
            violations.append(
                f"{result.request_id}: partial output is not an oracle prefix"
            )
    return violations


def _check_reconciliation(report, scheduler, registry: MetricsRegistry) -> List[str]:
    """Registry counters must agree exactly with the scheduler's report."""
    violations: List[str] = []

    def counter(name: str) -> float:
        instrument = registry.get(name)
        return instrument.value if instrument is not None else 0.0

    for status in ("completed", "timeout", "rejected", "failed"):
        observed = counter(f"serving.requests_{status}_total")
        expected = report.count(status)
        if observed != expected:
            violations.append(
                f"counter serving.requests_{status}_total={observed:g} "
                f"!= report {expected}"
            )
    if counter("resilience.retries_total") != report.n_retries:
        violations.append(
            f"counter resilience.retries_total={counter('resilience.retries_total'):g} "
            f"!= report {report.n_retries}"
        )
    if counter("resilience.requests_shed_total") != report.n_shed:
        violations.append(
            f"counter resilience.requests_shed_total="
            f"{counter('resilience.requests_shed_total'):g} != report {report.n_shed}"
        )
    transitions = report.breaker_transitions
    if counter("resilience.breaker_transitions_total") != len(transitions):
        violations.append(
            f"counter resilience.breaker_transitions_total="
            f"{counter('resilience.breaker_transitions_total'):g} "
            f"!= report {len(transitions)}"
        )
    n_opened = sum(1 for _, _, to in transitions if to == "open")
    n_closed = sum(1 for _, _, to in transitions if to == "closed")
    if counter("resilience.breaker_opened_total") != n_opened:
        violations.append("breaker opened counter does not match transitions")
    if counter("resilience.breaker_closed_total") != n_closed:
        violations.append("breaker closed counter does not match transitions")
    depth = registry.get("serving.queue_depth")
    if depth is not None and depth.value != 0:
        violations.append(f"queue_depth gauge left at {depth.value:g} after drain")
    del scheduler  # liveness/leak checks live in _check_drained
    return violations


def _check_drained(report, scheduler) -> List[str]:
    """Liveness + leak freedom once the facade returns."""
    violations: List[str] = []
    if not scheduler.idle:
        violations.append("scheduler not idle after serve_requests returned")
    if scheduler.n_active != 0:
        violations.append(f"{scheduler.n_active} sessions still hold KV arenas")
    if len(scheduler.queue) != 0:
        violations.append(f"{len(scheduler.queue)} handles still queued")
    n_started = sum(1 for r in report.results if r.started_ms is not None)
    if n_started and scheduler.memory.peak_tokens <= 0:
        violations.append("no KV-arena accounting folded back from retired sessions")
    return violations


def run_storm(profile: StormProfile, world: ChaosWorld,
              oracle: Optional[List[List[int]]] = None,
              work_dir: Optional[Path] = None) -> StormReport:
    """Run one storm and check every invariant; never raises on violation.

    ``oracle`` is the output of :func:`clean_token_ids` (recomputed when
    omitted).  ``work_dir`` is only needed by checkpoint-corruption
    storms.  The process metrics registry is swapped for a fresh one for
    the duration of the run and always restored.
    """
    # Lazy: serving is an application-layer package (see module docstring).
    from ..serving import (
        ContinuousBatchingScheduler,
        ServeRequest,
        ServingConfig,
        serve_requests,
    )

    if oracle is None:
        oracle = clean_token_ids(world)
    violations: List[str] = []

    checkpoint_error: Optional[str] = None
    if profile.corrupt_reload is not None:
        if work_dir is None:
            raise ChaosError(
                f"storm {profile.name!r} corrupts a checkpoint; pass work_dir"
            )
        checkpoint_error = _corrupt_reload(world, profile, Path(work_dir))
        if checkpoint_error is None:
            violations.append("corrupted checkpoint reloaded without detection")

    requests = [
        ServeRequest(
            request_id=f"{profile.name}-{i:03d}",
            sample=world.samples[i % len(world.samples)],
            deadline_ms=profile.deadline_ms,
        )
        for i in range(profile.n_requests)
    ]
    oracle_by_id = {
        request.request_id: oracle[i % len(world.samples)]
        for i, request in enumerate(requests)
    }

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine = AASDEngine(
            world.target, _storm_head(world, profile), world.tokenizer,
            world.cost_model,
            AASDEngineConfig(
                gamma=GAMMA,
                max_new_tokens=world.max_new_tokens,
                fallback_on_fault=profile.fallback_on_fault,
                max_draft_faults=profile.max_draft_faults,
            ),
            rng=np.random.default_rng(ENGINE_SEED),
        )
        config = ServingConfig(
            max_batch_size=profile.max_batch_size,
            max_queue_depth=profile.max_queue_depth,
            retry=profile.use_retry,
            retry_seed=profile.seed,
            breaker=profile.use_breaker,
            max_queue_ms=profile.max_queue_ms,
        )
        scheduler = ContinuousBatchingScheduler(engine, config)
        report = serve_requests(engine, requests, config, scheduler=scheduler)
    finally:
        set_registry(previous)

    identity = _check_identity(report.results, oracle_by_id)
    violations.extend(identity)
    violations.extend(_check_drained(report, scheduler))
    violations.extend(_check_reconciliation(report, scheduler, registry))

    n_completed = report.count("completed")
    return StormReport(
        profile=profile.name,
        n_requests=profile.n_requests,
        n_completed=n_completed,
        n_timeout=report.count("timeout"),
        n_rejected=report.count("rejected"),
        n_failed=report.count("failed"),
        n_retries=report.n_retries,
        n_shed=report.n_shed,
        availability=n_completed / profile.n_requests if profile.n_requests else 1.0,
        sim_ms=report.total_sim_ms,
        total_tokens=report.total_tokens,
        token_identical=not identity,
        breaker_transitions=report.breaker_transitions,
        checkpoint_error=checkpoint_error,
        violations=tuple(violations),
    )


def run_chaos(world: ChaosWorld,
              profiles: Optional[Sequence[StormProfile]] = None,
              quick: bool = False,
              work_dir: Optional[Path] = None) -> ChaosReport:
    """Run a storm suite (default: the four canonical storms).

    The clean oracle is computed once and shared across storms.
    """
    if profiles is None:
        profiles = default_profiles(quick=quick)
    oracle = clean_token_ids(world)
    return ChaosReport(storms=tuple(
        run_storm(profile, world, oracle=oracle, work_dir=work_dir)
        for profile in profiles
    ))


def assert_chaos(report: ChaosReport) -> None:
    """Raise :class:`~repro.errors.ChaosError` listing every violation."""
    if report.passed:
        return
    lines = []
    for storm in report.storms:
        for violation in storm.violations:
            lines.append(f"[{storm.profile}] {violation}")
    raise ChaosError("chaos invariants violated:\n" + "\n".join(lines))
