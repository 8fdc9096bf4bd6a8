"""Span-based tracing for the prefill / draft / verify pipeline.

A :class:`Tracer` hands out context-manager :class:`Span` objects that nest
via one span stack, so the decode loop can be tiled into phases::

    with tracer.span("decode", decoder="ours"):
        with tracer.span("prefill"):
            ...
        with tracer.span("draft", gamma=3) as sp:
            sp.add_sim_ms(cost)          # simulated charge, side by side
            ...

Design constraints, in priority order:

* **Near-zero overhead when disabled** — ``tracer.span(...)`` returns a
  shared no-op singleton without allocating, so instrumented code paths
  cost one attribute check per span when tracing is off.  Tracing never
  touches RNG state, so traced and untraced decodes emit identical tokens.
* **One thread** — the tracer is driven by the one thread that runs the
  pipeline (see :mod:`repro.serving.scheduler`), so it keeps one plain
  span stack and takes no lock.
* **Dual clocks** — every span measures real wall time
  (``time.perf_counter``) and accumulates *simulated* milliseconds charged
  by the cost model via :meth:`Span.add_sim_ms`, so reports can show both
  side by side per phase.

Per-phase latency digests are computed from the finished spans
(``python -m repro.obs summarize``), not kept beside them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as stored in memory and written by exporters."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float              # time.perf_counter seconds
    end_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def duration_ms(self) -> float:
        return 1000.0 * (self.end_s - self.start_s)

    @property
    def sim_ms(self) -> float:
        """Simulated milliseconds charged inside this span (0 if none)."""
        return float(self.attrs.get("sim_ms", 0.0))


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set_attr(self, key: str, value: object) -> None:
        pass

    def add_attr(self, key: str, delta: float) -> None:
        pass

    def add_sim_ms(self, ms: float) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A live span; use as a context manager (see module docstring).

    Lifecycle bookkeeping is deliberately placed *inside* the timed window
    (``start_s`` is stamped first on enter, ``end_s`` last on exit, and the
    finished-list append happens in between), so sibling phase spans tile
    their parent with sub-microsecond gaps even on tiny models — the
    property the per-phase wall-time breakdown relies on.
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "start_s", "end_s")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s = 0.0

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def add_attr(self, key: str, delta: float) -> None:
        """Accumulate a numeric attribute (used by op-level profiling hooks)."""
        self.attrs[key] = float(self.attrs.get(key, 0.0)) + float(delta)

    def add_sim_ms(self, ms: float) -> None:
        """Attribute a simulated-clock charge (milliseconds) to this span."""
        self.attrs["sim_ms"] = float(self.attrs.get("sim_ms", 0.0)) + float(ms)

    def record(self) -> SpanRecord:
        """Immutable snapshot of this (finished) span."""
        return SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_s=self.start_s,
            end_s=self.end_s,
            attrs=dict(self.attrs),
        )

    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._pop(self)
        self.end_s = time.perf_counter()


class Tracer:
    """Collects spans in memory; export via :mod:`repro.obs.exporters`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._finished: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    # -- instrumentation entry point ------------------------------------
    def span(self, name: str, **attrs):
        """Open a span; returns the no-op singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, next(self._ids), parent, attrs)

    def current_span(self):
        """Innermost open span (``NULL_SPAN`` if none)."""
        return self._stack[-1] if self._stack else NULL_SPAN

    # -- span lifecycle (called by Span) --------------------------------
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Runs inside the span's timed window (before end_s is stamped),
        # so this bookkeeping never shows up as a gap between siblings.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:    # tolerate out-of-order exits
            self._stack.remove(span)
        self._finished.append(span)

    # -- access ----------------------------------------------------------
    @property
    def spans(self) -> List[SpanRecord]:
        """Snapshot of finished spans, in completion order."""
        return [s.record() for s in self._finished]

    def drain(self) -> List[SpanRecord]:
        """Return finished spans and clear the buffer."""
        out, self._finished = self._finished, []
        return [s.record() for s in out]

    def clear(self) -> None:
        self._finished.clear()


# ---------------------------------------------------------------------------
# Process-wide default tracer.  Disabled out of the box: uninstrumented
# behaviour (and overhead) is the default, opt in via enable_tracing().
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented component defaults to."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _GLOBAL
    previous, _GLOBAL = _GLOBAL, tracer
    return previous


def enable_tracing() -> Tracer:
    """Switch the global tracer on; returns it."""
    _GLOBAL.enabled = True
    return _GLOBAL


def disable_tracing() -> Tracer:
    _GLOBAL.enabled = False
    return _GLOBAL
