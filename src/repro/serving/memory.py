"""Where a serving run's memory goes: the owner table behind ``peak_rss_mb``.

``peak_rss_mb`` is the process's resident high-water mark
(``ru_maxrss``), zoo load included.  :class:`MemoryProbe` splits it by
owner.  It wraps an engine's two round entry points — ``begin_batch``
(an *admission*) and ``step_batch`` (a *round*) — and around each call

* reads the high-water mark before and after, so the call that set the
  run's peak is known;
* runs :mod:`tracemalloc`, so the call's **forward transient** — its
  traced peak minus what it still held at return — is known.  A serving
  run's peak sits inside a forward, where nothing read at a round
  boundary can see it;
* samples every owner at the round boundary after the call.

The owners are the served models' **parameters** (each weight's one
stored array: a pinned weight's float64 operand once built), their
**pinned operands** (the float64 copies held beside a stored float32
array, counted by :func:`repro.nn.kernels.operand_nbytes`: the tied
embeddings' transposed operands), the **target KV** of every live
session (arena capacity reserved, and the rows live in it), the
drafters' per-session **draft state**, and the forward transient.  What
the peak holds beyond them — interpreter, imports, datasets, tokenizer,
allocator slack — is the **rest of process**.

The probe adds nothing to the hot path: it wraps the two calls from
outside and reads the caches between them.  Tracing slows every
allocation, so a probed run is for this table only, never for the wall
clock; ``scripts/profile_serving.py`` runs it in a process of its own.
The high-water marks it reads include tracemalloc's own bookkeeping.
"""

from __future__ import annotations

import resource
import tracemalloc
import weakref
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..core.engine import DecodeSession
from ..nn.kernels import operand_nbytes

__all__ = ["OWNERS", "CallSample", "MemoryProbe", "MemoryTable", "peak_rss_mb",
           "render_memory"]

_MB = float(1 << 20)

#: What a round-boundary sample holds, in table order.  Every owner but
#: ``target KV live`` (a part of ``target KV reserved``) adds to the peak.
OWNERS = ("parameters", "pinned operands", "target KV reserved", "target KV live",
          "draft state")
_PART_OF_RESERVED = "target KV live"


def peak_rss_mb() -> float:
    """The process's resident high-water mark in MB, read as the e2e benchmark reads it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class CallSample:
    """One probed engine call and the round boundary after it (sizes in MB)."""

    index: int                   #: ordinal of the call in the run
    kind: str                    #: ``"admission"`` (``begin_batch``) or ``"round"`` (``step_batch``)
    batch: int                   #: requests or sessions the call was given
    hwm_before_mb: float         #: high-water mark when the call began
    hwm_after_mb: float          #: high-water mark when it returned
    transient_mb: float          #: traced peak inside the call minus ``retained_mb``
    retained_mb: float           #: what the call allocated and still held at return
    owners_mb: Dict[str, float]  #: every owner of :data:`OWNERS` after the call


@dataclass(frozen=True)
class MemoryTable:
    """A probed run's peak, split by owner, and every call sample behind it."""

    peak_rss_mb: float               #: high-water mark when the table was taken
    calls: Tuple[CallSample, ...]

    @property
    def peak_call(self) -> Optional[CallSample]:
        """The call that raised the high-water mark to the run's peak.

        ``None`` when no probed call did: the peak was set outside the
        serving calls (at load, say).
        """
        for call in reversed(self.calls):
            if call.hwm_after_mb > call.hwm_before_mb:
                return call if call.hwm_after_mb >= self.peak_rss_mb else None
        return None

    def rows(self) -> List[Tuple[str, Optional[float], Optional[float]]]:
        """``(owner, MB at the peak, largest MB after any call)`` in table order.

        The peak column reads the owners at the boundary right after the
        call that set the peak, plus that call's forward transient; the
        rest of process is the peak minus all of them.  A cell without a
        value is ``None``.
        """
        at = self.peak_call
        rows: List[Tuple[str, Optional[float], Optional[float]]] = [
            (owner, at.owners_mb[owner] if at else None,
             max(c.owners_mb[owner] for c in self.calls))
            for owner in OWNERS
        ]
        rows.append(("forward transient", at.transient_mb if at else None,
                     max(c.transient_mb for c in self.calls)))
        rest = None
        if at is not None:
            held = sum(mb for owner, mb in at.owners_mb.items() if owner != _PART_OF_RESERVED)
            rest = self.peak_rss_mb - held - at.transient_mb
        rows.append(("rest of process", rest, None))
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: the peak, the call that set it, the rows and every call."""
        at = self.peak_call
        return {
            "peak_rss_mb": self.peak_rss_mb,
            "peak_call": asdict(at) if at else None,
            "rows": [{"owner": o, "at_peak_mb": p, "largest_mb": m} for o, p, m in self.rows()],
            "calls": [asdict(c) for c in self.calls],
        }


def _mb(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def render_memory(table: MemoryTable) -> str:
    """The owner table as text, one owner per line."""
    at = table.peak_call
    where = (f"set by call {at.index}, the {at.kind} of {at.batch}" if at
             else "set outside the probed calls")
    lines = [
        f"memory: peak RSS {table.peak_rss_mb:.2f} MB, {where} ({len(table.calls)} calls)",
        f"{'owner':<22}{'at the peak MB':>16}{'largest after a call MB':>25}",
    ]
    for owner, at_peak, largest in table.rows():
        label = "  of which live" if owner == _PART_OF_RESERVED else owner
        lines.append(f"{label:<22}{_mb(at_peak):>16}{_mb(largest):>25}")
    return "\n".join(lines)


class MemoryProbe:
    """Samples memory around every ``begin_batch`` / ``step_batch`` of an engine.

    Construct it on an engine before serving and read :meth:`table`
    after; :meth:`detach` gives the engine its own methods back.  Each
    call runs under :mod:`tracemalloc`, which must not be running
    already.  Sessions are held weakly, so a retired session leaves the
    tally once it is collected.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self._params = [*engine.target.parameters(), *engine.head.parameters()]
        self._sessions: Dict[int, weakref.ref] = {}
        self.calls: List[CallSample] = []
        engine.begin_batch = self._probed("admission", engine.begin_batch)
        engine.step_batch = self._probed("round", engine.step_batch)

    def detach(self) -> None:
        """Restore the engine's own ``begin_batch`` / ``step_batch``."""
        del self._engine.begin_batch, self._engine.step_batch

    def table(self) -> MemoryTable:
        """The owner table over every call probed so far."""
        return MemoryTable(peak_rss_mb(), tuple(self.calls))

    def _probed(self, kind: str, call):
        def probed(items, **kwargs):
            if tracemalloc.is_tracing():
                raise RuntimeError("MemoryProbe needs tracemalloc to itself")
            hwm = peak_rss_mb()
            tracemalloc.start()
            try:
                out = call(items, **kwargs)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            for outcome in out:
                if isinstance(outcome, DecodeSession):
                    self._sessions[id(outcome)] = weakref.ref(outcome)
            self.calls.append(CallSample(
                index=len(self.calls), kind=kind, batch=len(items),
                hwm_before_mb=hwm, hwm_after_mb=peak_rss_mb(),
                transient_mb=(peak - retained) / _MB, retained_mb=retained / _MB,
                owners_mb=self._owners(),
            ))
            return out

        return probed

    def _owners(self) -> Dict[str, float]:
        reserved = live = draft = 0
        for key, ref in list(self._sessions.items()):
            session = ref()
            if session is None:
                del self._sessions[key]
                continue
            r, n = session.target_cache.footprint()
            reserved += r
            live += n
            if session.draft_state is not None:
                draft += session.draft_state.footprint()[0]
        stored = {id(array): array.nbytes for array in (p.stored for p in self._params)}
        return {
            "parameters": sum(stored.values()) / _MB,
            "pinned operands": operand_nbytes(self._params) / _MB,
            "target KV reserved": reserved / _MB,
            "target KV live": live / _MB,
            "draft state": draft / _MB,
        }
