"""Deterministic fault injectors for checkpoints, weights, and draft heads.

Everything here is reproducible from an explicit seed — no wall-clock or
global RNG — so a test that provokes a fault provokes exactly the same
fault on every run.

Fault taxonomy
--------------
The serving retry path (``repro.serving.resilience``) needs to know
whether a fault is worth retrying.  Every injected draft fault therefore
carries a ``transient`` flag, and the taxonomy distinguishes:

==================== ========== ==========================================
fault type           transient  real-world analogue
==================== ========== ==========================================
:class:`DraftFault`  caller-set generic draft-module crash
:class:`LatencySpikeFault` yes  a draft forward timing out under load
:class:`ArenaPressureFault` yes KV-arena allocation failing under memory
                                pressure (clears when sessions retire)
:class:`NaNLogitsFault` no      mid-decode NaN logits from bad weights
==================== ========== ==========================================

:func:`is_transient` is the canonical classifier: retry layers should call
it rather than inspecting exception types themselves.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..nn.module import Module
from ..obs.logsetup import get_logger, log_exception

__all__ = [
    "truncate_checkpoint",
    "flip_checkpoint_bytes",
    "corrupt_checkpoint",
    "inject_nan_weights",
    "FaultyDraftHead",
    "DraftFault",
    "LatencySpikeFault",
    "ArenaPressureFault",
    "NaNLogitsFault",
    "is_transient",
]

logger = get_logger(__name__)


class DraftFault(RuntimeError):
    """A draft-module failure injected (or classified) on the decode path.

    ``transient`` is the retry hint: transient faults model conditions
    that clear on their own (timeouts, memory pressure), so a serving
    layer may re-run the request; persistent faults will recur and should
    fail fast or degrade to target-only decoding instead.
    """

    def __init__(self, message: str = "", transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


class LatencySpikeFault(DraftFault):
    """A draft forward exceeded its latency budget (transient by default)."""

    def __init__(self, message: str = "", transient: bool = True) -> None:
        super().__init__(message, transient)


class ArenaPressureFault(DraftFault):
    """KV-arena growth failed under memory pressure (transient by default:
    pressure clears as batch-mates retire and release their arenas)."""

    def __init__(self, message: str = "", transient: bool = True) -> None:
        super().__init__(message, transient)


class NaNLogitsFault(DraftFault):
    """Mid-decode NaN logits (persistent by default: bad weights recur)."""

    def __init__(self, message: str = "", transient: bool = False) -> None:
        super().__init__(message, transient)


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` models a fault that may clear on retry.

    The canonical taxonomy classifier for retry layers: any
    :class:`DraftFault` answers from its own ``transient`` flag; every
    other exception type is treated as persistent (retrying a logic error
    just burns the retry budget).
    """
    if isinstance(exc, DraftFault):
        return exc.transient
    return False


def truncate_checkpoint(path: Path, keep_fraction: float = 0.5) -> Path:
    """Truncate a file to ``keep_fraction`` of its bytes (crash-mid-write)."""
    path = Path(path)
    if not 0.0 <= keep_fraction < 1.0:
        raise ConfigError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])
    return path


def flip_checkpoint_bytes(path: Path, n_flips: int = 8, seed: int = 0) -> Path:
    """XOR-flip ``n_flips`` random bytes in place (silent bit-rot)."""
    path = Path(path)
    if n_flips <= 0:
        raise ConfigError(f"n_flips must be positive, got {n_flips}")
    data = bytearray(path.read_bytes())
    if not data:
        return path
    rng = np.random.default_rng(seed)
    for offset in rng.integers(0, len(data), size=n_flips):
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


def corrupt_checkpoint(path: Path, mode: str = "truncate", seed: int = 0) -> Path:
    """Corrupt a checkpoint file with the named fault mode."""
    if mode == "truncate":
        return truncate_checkpoint(path)
    if mode == "byteflip":
        return flip_checkpoint_bytes(path, seed=seed)
    raise ConfigError(f"unknown corruption mode {mode!r}; use 'truncate' or 'byteflip'")


def inject_nan_weights(module: Module, fraction: float = 0.05, seed: int = 0) -> int:
    """Overwrite a deterministic subset of parameter entries with NaN.

    Returns the number of poisoned scalars.  ``fraction`` applies per
    parameter tensor (at least one element each once fraction > 0).  Each
    poisoned array *replaces* the parameter's, as an optimizer step does,
    so a live engine's inference operands see it (``repro.nn.kernels``).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    n_poisoned = 0
    for _, param in module.named_parameters():
        n = max(1, int(param.data.size * fraction))
        idx = rng.choice(param.data.size, size=n, replace=False)
        poisoned = param.data.copy()
        np.put(poisoned, idx, np.nan)
        param.data = poisoned
        n_poisoned += n
    return n_poisoned


def _hash_unit(seed: int, tag: str) -> float:
    """Deterministic uniform in [0, 1) from (seed, tag) — no RNG object.

    SHA-256 based like :func:`repro.utils.rng.seed_sequence`, so the value
    is stable across processes and runs (Python's ``hash`` is salted and
    must not be used for fault schedules).
    """
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / float(1 << 64)


class FaultyDraftHead:
    """Wraps a drafter (an :class:`~repro.core.draft_head.AASDDraftHead`,
    or for the exception modes any
    :class:`~repro.decoding.speculative.Drafter` with a per-request
    ``step``), injecting faults into ``step`` on a deterministic schedule.

    Modes
    -----
    * ``"nan-logits"`` — return an all-NaN logits row,
    * ``"inf-logits"`` — return an all-``+inf`` logits row,
    * ``"raise"``      — raise :class:`DraftFault` (``transient=`` sets
      the taxonomy flag on the raised fault),
    * ``"latency"``    — raise :class:`LatencySpikeFault` (transient),
    * ``"arena-pressure"`` — raise :class:`ArenaPressureFault` (transient),
    * ``"corrupt-cache"`` — run the real step, then append a NaN entry to
      the hybrid cache's draft lane (tests the cache-invariant guard).

    Scheduling
    ----------
    By default faults fire on a *global* step counter: ``fail_steps`` pins
    faults to exact step indices, otherwise every ``fail_every``-th step
    starting at ``start_step`` faults.  That counter is order-dependent
    when requests interleave in a batch, so two chaos runs with different
    scheduling orders fault different requests.

    The engine drafts chains and trees in lockstep through
    :meth:`step_packed`, which runs this wrapper's own :meth:`step` row by
    row: a global counter therefore advances expansion-major across the
    batch (expansion 0 of every request, then expansion 1, ...), and a
    fault is returned in the faulting row's slot so it stays that
    request's fault.

    ``per_request=True`` keys the schedule per request id instead: each
    request gets its own monotone step counter (never reset, so a retried
    request continues at the index where its last attempt died and a
    one-shot fault is not replayed forever), and ``fail_steps`` /
    ``fail_every`` apply to that request-local index.  Requires the caller
    to thread ``request_id`` into :meth:`step`, which the AASD engine does
    for every session.

    ``request_fault_rate`` builds a *storm* schedule on top: each request
    is independently afflicted with probability ``request_fault_rate``
    (deterministic in ``seed`` and the request id via SHA-256, so the
    afflicted set is identical regardless of scheduling order), and an
    afflicted request faults at ``faults_per_request`` derived step
    indices within its first ``fault_horizon`` steps.

    All other attributes — the rest of the drafter seam included (``open``,
    ``rollback``, ``absorb``, the prices, ``supports_tree``) — delegate to
    the wrapped head, so the engine cannot tell the difference until a
    fault fires.
    """

    MODES = ("nan-logits", "inf-logits", "raise", "latency", "arena-pressure",
             "corrupt-cache")

    def __init__(
        self,
        head,
        mode: str = "nan-logits",
        fail_every: int = 1,
        start_step: int = 0,
        fail_steps: Optional[Sequence[int]] = None,
        *,
        per_request: bool = False,
        seed: int = 0,
        request_fault_rate: Optional[float] = None,
        faults_per_request: int = 1,
        fault_horizon: int = 10,
        transient: bool = False,
    ) -> None:
        if mode not in self.MODES:
            raise ConfigError(f"unknown fault mode {mode!r}; choose from {self.MODES}")
        if fail_every <= 0:
            raise ConfigError(f"fail_every must be positive, got {fail_every}")
        if request_fault_rate is not None and not 0.0 <= request_fault_rate <= 1.0:
            raise ConfigError(
                f"request_fault_rate must be in [0, 1], got {request_fault_rate}"
            )
        if faults_per_request <= 0:
            raise ConfigError(
                f"faults_per_request must be positive, got {faults_per_request}"
            )
        if fault_horizon <= 0:
            raise ConfigError(f"fault_horizon must be positive, got {fault_horizon}")
        self._head = head
        self.mode = mode
        self.fail_every = fail_every
        self.start_step = start_step
        self.fail_steps = frozenset(fail_steps) if fail_steps is not None else None
        self.per_request = per_request or request_fault_rate is not None
        self.seed = seed
        self.request_fault_rate = request_fault_rate
        self.faults_per_request = faults_per_request
        self.fault_horizon = fault_horizon
        self.transient = transient
        self.n_steps = 0
        self.n_faults = 0
        self.steps_by_request: Dict[str, int] = {}
        self.faults_by_request: Dict[str, int] = {}

    def __getattr__(self, name: str):
        return getattr(self._head, name)

    # ------------------------------------------------------------------
    def storm_steps(self, request_id: str) -> FrozenSet[int]:
        """The step indices at which ``request_id`` faults under a storm
        schedule (empty when the request is not afflicted).

        Derived purely from ``(seed, request_id)``, so chaos harnesses can
        predict the afflicted set without running anything.
        """
        if self.request_fault_rate is None:
            return frozenset()
        if _hash_unit(self.seed, f"afflict:{request_id}") >= self.request_fault_rate:
            return frozenset()
        return frozenset(
            int(_hash_unit(self.seed, f"step:{request_id}:{j}") * self.fault_horizon)
            for j in range(self.faults_per_request)
        )

    def _should_fail(self, step_index: int, request_id: Optional[str]) -> bool:
        if self.request_fault_rate is not None:
            return step_index in self.storm_steps(request_id or "")
        if self.fail_steps is not None:
            return step_index in self.fail_steps
        if step_index < self.start_step:
            return False
        return (step_index - self.start_step) % self.fail_every == 0

    def _next_index(self, request_id: Optional[str]) -> int:
        """Advance and return the schedule index for this step."""
        self.n_steps += 1
        if not self.per_request:
            return self.n_steps - 1
        key = request_id or ""
        index = self.steps_by_request.get(key, 0)
        self.steps_by_request[key] = index + 1
        return index

    def step(self, token_id: int, position: int, hybrid, **kwargs) -> np.ndarray:
        """One draft step: the wrapped head's, or this step's scheduled fault."""
        request_id = kwargs.get("request_id")
        step_index = self._next_index(request_id)
        if not self._should_fail(step_index, request_id):
            return self._head.step(token_id, position, hybrid, **kwargs)
        self.n_faults += 1
        key = request_id or ""
        self.faults_by_request[key] = self.faults_by_request.get(key, 0) + 1
        where = f"step {step_index}" + (f" of {request_id}" if request_id else "")
        if self.mode == "raise":
            raise DraftFault(f"injected draft fault at {where}",
                             transient=self.transient)
        if self.mode == "latency":
            raise LatencySpikeFault(f"injected latency spike at {where}")
        if self.mode == "arena-pressure":
            raise ArenaPressureFault(f"injected arena pressure at {where}")
        if self.mode == "corrupt-cache":
            logits = self._head.step(token_id, position, hybrid, **kwargs)
            cfg = self._head.config
            bad = np.full((1, cfg.n_heads, 1, cfg.head_dim), np.nan, dtype=np.float32)
            hybrid.append_draft(bad, bad)
            return logits
        fill = np.nan if self.mode == "nan-logits" else np.inf
        return np.full(self._head.config.vocab_size, fill, dtype=np.float64)

    def step_packed(self, token_ids: Sequence[int], positions: Sequence[int],
                    hybrids: Sequence,
                    request_ids: Optional[Sequence[Optional[str]]] = None,
                    ancestor_rows: Optional[Sequence] = None) -> list:
        """Lockstep draft step with the fault schedule applied row by row.

        Each row advances its own schedule through :meth:`step`, with its
        own ``ancestor_rows``, so fault storms run through the same
        lockstep loop as healthy traffic, chain or tree, and a
        per-request schedule faults the same requests at any batch width.
        A row that raises gets its exception in its slot of the returned
        list (a row-level draft fault to the engine) instead of failing
        its batch-mates.
        """
        n = len(hybrids)
        rids = request_ids if request_ids is not None else [None] * n
        ancestors = ancestor_rows if ancestor_rows is not None else [None] * n
        rows: list = []
        for token_id, position, hybrid, rid, path in zip(
                token_ids, positions, hybrids, rids, ancestors):
            try:
                rows.append(self.step(token_id, position, hybrid,
                                      request_id=rid, ancestor_rows=path))
            except Exception as exc:  # the row's fault, not the batch's
                log_exception(logger, "draft_fault", exc,
                              request_id=rid, position=position)
                rows.append(exc)
        return rows
