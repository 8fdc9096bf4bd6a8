"""Wall-clock attribution profiling: where real time goes, op by op.

The span tracer (:mod:`repro.obs.tracing`) tiles a decode into phases but
cannot say *what* inside a phase burned the wall clock — GEMM compute,
arena memcpy, or plain per-request Python overhead.  This module adds the
op level:

* :class:`Profiler` — a process-wide, off-by-default accumulator that
  instrumented hot paths feed: :func:`~repro.nn.tensor.matmul_data`
  records every GEMM (calls, ms, FLOPs) — a product of two dtypes, which
  makes numpy cast an operand first, as ``gemm_cast`` — and
  :class:`~repro.utils.arena.Arena` records every memcpy and view rebuild
  (calls, ms, bytes).  Each record is also accumulated onto
  the innermost open span (``gemm_ms`` / ``arena_copy_ms`` / ... span
  attributes), so exported traces carry the attribution and
  ``python -m repro.obs summarize --attribution`` can rebuild it offline.
* :func:`build_attribution` — folds a span tree into a five-bucket
  wall-time split ``{gemm, gemm_cast, arena_copy, python_overhead,
  other}``:

  - **gemm** / **gemm_cast** / **arena_copy**: measured op time
    (``gemm_cast`` is a mixed-dtype product, cast included — a serving
    run records none; view rebuilds are counted with arena copies — both
    are storage-layer time);
  - **python_overhead**: container self-time — the part of ``decode`` /
    ``request`` / ``schedule`` spans not covered by their children, i.e.
    the N× per-request Python loop the batched round still pays;
  - **other**: phase-interior time that no op hook claimed (softmax,
    sampling, bookkeeping inside prefill/draft/verify/fallback);
  - **residual**: whatever the tree failed to cover (bounded by the
    span-tiling guarantee; the attribution tests pin it under 10%).

* Latency digests: :func:`collect_latencies` /
  :func:`summarize_latencies` aggregate the zero-duration
  ``request_latency`` spans the serving scheduler emits per retired
  request into TTFT / TPOT / E2E p50/p95/p99 tables.

Profiling is **off by default** and the disabled hook costs one attribute
check; it never touches RNG state, so profiled and unprofiled decodes
emit byte-identical tokens (``tests/obs/test_profile.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .metrics import exact_quantile
from .tracing import SpanRecord, get_tracer

__all__ = [
    "OpStats",
    "Profiler",
    "PROFILER",
    "get_profiler",
    "enable_profiling",
    "disable_profiling",
    "PhaseAttribution",
    "AttributionReport",
    "build_attribution",
    "render_attribution",
    "collect_latencies",
    "summarize_latencies",
    "LATENCY_METRICS",
]

#: Ops the hot-path hooks report (span attrs are ``<op>_ms`` etc.).
OP_GEMM = "gemm"
OP_GEMM_CAST = "gemm_cast"
OP_ARENA_COPY = "arena_copy"
OP_ARENA_VIEW = "arena_view"

#: Spans that tile a decode from the inside (same set the summarizer uses;
#: duplicated here so ``summarize`` can import this module without a cycle).
PHASE_SPANS = ("prefill", "draft", "verify", "fallback", "ar_step")

#: Spans whose *self time* (wall not covered by children) is per-request /
#: per-round Python loop overhead rather than model compute.
CONTAINER_SPANS = ("decode", "request", "schedule")

#: Latency metrics carried by ``request_latency`` spans (simulated ms).
LATENCY_METRICS = ("ttft_ms", "tpot_ms", "e2e_ms")


@dataclass
class OpStats:
    """Accumulated accounting for one op kind."""

    calls: int = 0
    wall_ms: float = 0.0
    flops: float = 0.0
    bytes: int = 0

    def add(self, wall_ms: float, flops: float = 0.0, nbytes: int = 0) -> None:
        """Accumulate one op invocation."""
        self.calls += 1
        self.wall_ms += wall_ms
        self.flops += flops
        self.bytes += nbytes

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly dump."""
        return {"calls": self.calls, "wall_ms": self.wall_ms,
                "flops": self.flops, "bytes": self.bytes}


class Profiler:
    """Process-wide op-level accounting, off by default.

    Hooks call :meth:`record`; the profiler accumulates per-op totals
    *and* stamps the measured milliseconds onto the innermost open span
    (``<op>_ms`` / ``<op>_calls`` / ``<op>_flops`` / ``<op>_bytes``
    attributes) so exported traces carry the attribution.  Driven by the
    one thread that runs the pipeline (no lock); when ``enabled`` is False
    every hook reduces to one attribute check.
    """

    __slots__ = ("enabled", "tracer", "_ops")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Optional explicit tracer; None means the process-global one.
        self.tracer = None
        self._ops: Dict[str, OpStats] = {}

    def record(self, op: str, wall_ms: float, flops: float = 0.0,
               nbytes: int = 0) -> None:
        """Account one op invocation (hooks must pre-check ``enabled``)."""
        stats = self._ops.get(op)
        if stats is None:
            stats = self._ops[op] = OpStats()
        stats.add(wall_ms, flops=flops, nbytes=nbytes)
        tracer = self.tracer if self.tracer is not None else get_tracer()
        span = tracer.current_span()
        span.add_attr(f"{op}_ms", wall_ms)
        span.add_attr(f"{op}_calls", 1)
        if flops:
            span.add_attr(f"{op}_flops", flops)
        if nbytes:
            span.add_attr(f"{op}_bytes", nbytes)

    def op(self, name: str) -> OpStats:
        """Accumulated stats for ``name`` (zeros if never recorded)."""
        return self._ops.get(name, OpStats())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-op accounting as a JSON-friendly dict."""
        return {op: stats.snapshot() for op, stats in sorted(self._ops.items())}

    def reset(self) -> None:
        """Drop all accumulated op accounting (enabled flag unchanged)."""
        self._ops.clear()


#: The singleton every hook checks.  A single object (rather than a
#: swappable global) keeps the disabled hot-path cost to one attribute
#: load; tests isolate themselves with ``PROFILER.reset()``.
PROFILER = Profiler(enabled=False)


def get_profiler() -> Profiler:
    """The process-wide profiler instrumented hot paths feed."""
    return PROFILER


def enable_profiling(tracer=None) -> Profiler:
    """Switch op-level profiling on (optionally stamping ``tracer``'s spans)."""
    PROFILER.tracer = tracer
    PROFILER.enabled = True
    return PROFILER


def disable_profiling() -> Profiler:
    """Switch op-level profiling off (accumulated stats are kept)."""
    PROFILER.enabled = False
    return PROFILER


# ---------------------------------------------------------------------------
# Attribution: span tree -> {gemm, gemm_cast, arena_copy, python_overhead, other}.
# ---------------------------------------------------------------------------
def _op_ms(span: SpanRecord) -> Dict[str, float]:
    """Measured op milliseconds stamped on ``span`` (gemm / gemm_cast / arena buckets)."""
    attrs = span.attrs
    arena = float(attrs.get("arena_copy_ms", 0.0)) + float(attrs.get("arena_view_ms", 0.0))
    return {"gemm": float(attrs.get("gemm_ms", 0.0)),
            "gemm_cast": float(attrs.get("gemm_cast_ms", 0.0)), "arena_copy": arena}


@dataclass
class PhaseAttribution:
    """One phase's wall time, split into measured ops and the remainder."""

    name: str
    count: int = 0
    wall_ms: float = 0.0
    gemm_ms: float = 0.0
    gemm_calls: int = 0
    gemm_flops: float = 0.0
    gemm_cast_ms: float = 0.0
    gemm_cast_calls: int = 0
    arena_ms: float = 0.0
    arena_bytes: int = 0
    other_ms: float = 0.0   #: wall - gemm - gemm_cast - arena, clamped at zero per span


@dataclass
class AttributionReport:
    """The five-bucket wall-time split ``summarize --attribution`` prints."""

    total_ms: float = 0.0                 #: wall time of all root spans
    buckets: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, PhaseAttribution] = field(default_factory=dict)
    has_ops: bool = False                 #: any span carried op attributes

    @property
    def residual_ms(self) -> float:
        """Wall time the tree did not cover (tiling gaps)."""
        return self.total_ms - sum(self.buckets.values())

    @property
    def residual_fraction(self) -> float:
        """Residual as a fraction of total wall (0 when total is 0)."""
        if self.total_ms <= 0:
            return 0.0
        return self.residual_ms / self.total_ms

    @property
    def gemm_gflops_per_s(self) -> float:
        """Aggregate GEMM throughput implied by the measured op time."""
        total_flops = sum(p.gemm_flops for p in self.phases.values())
        total_ms = sum(p.gemm_ms for p in self.phases.values())
        if total_ms <= 0:
            return 0.0
        return (total_flops / 1e9) / (total_ms / 1e3)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (the machine-readable CLI output)."""
        return {
            "total_ms": self.total_ms,
            "buckets": dict(self.buckets),
            "residual_ms": self.residual_ms,
            "residual_fraction": self.residual_fraction,
            "gemm_gflops_per_s": self.gemm_gflops_per_s,
            "phases": {
                name: {
                    "count": p.count,
                    "wall_ms": p.wall_ms,
                    "gemm_ms": p.gemm_ms,
                    "gemm_calls": p.gemm_calls,
                    "gemm_flops": p.gemm_flops,
                    "gemm_cast_ms": p.gemm_cast_ms,
                    "gemm_cast_calls": p.gemm_cast_calls,
                    "arena_ms": p.arena_ms,
                    "arena_bytes": p.arena_bytes,
                    "other_ms": p.other_ms,
                }
                for name, p in sorted(self.phases.items())
            },
        }


def build_attribution(spans: Sequence[SpanRecord]) -> AttributionReport:
    """Fold a span tree into the five-bucket wall-time attribution.

    * phase spans (``prefill``/``draft``/``verify``/``fallback``/
      ``ar_step``) split their wall into measured ``gemm`` +
      ``gemm_cast`` + ``arena`` op time and ``other`` (the unclaimed
      interior);
    * container spans (``decode``/``request``/``schedule``) contribute
      their *self time* minus any ops recorded directly on them to
      ``python_overhead`` — the per-request / per-round loop cost;
    * the report's residual is whatever the roots' wall the tree failed
      to cover, bounded in practice by the span-tiling guarantee.
    """
    report = AttributionReport(
        buckets={"gemm": 0.0, "gemm_cast": 0.0, "arena_copy": 0.0,
                 "python_overhead": 0.0, "other": 0.0},
    )
    by_id = {s.span_id: s for s in spans}
    child_ms: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_ms[span.parent_id] = child_ms.get(span.parent_id, 0.0) + span.duration_ms
        else:
            report.total_ms += span.duration_ms

    for span in spans:
        ops = _op_ms(span)
        measured = sum(ops.values())
        if measured > 0:
            report.has_ops = True
        if span.name in PHASE_SPANS:
            phase = report.phases.get(span.name)
            if phase is None:
                phase = report.phases[span.name] = PhaseAttribution(span.name)
            phase.count += 1
            phase.wall_ms += span.duration_ms
            phase.gemm_ms += ops["gemm"]
            phase.gemm_calls += int(span.attrs.get("gemm_calls", 0))
            phase.gemm_flops += float(span.attrs.get("gemm_flops", 0.0))
            phase.gemm_cast_ms += ops["gemm_cast"]
            phase.gemm_cast_calls += int(span.attrs.get("gemm_cast_calls", 0))
            phase.arena_ms += ops["arena_copy"]
            phase.arena_bytes += int(span.attrs.get("arena_copy_bytes", 0))
            phase.other_ms += max(0.0, span.duration_ms - measured)
            for bucket, ms in ops.items():
                report.buckets[bucket] += ms
            report.buckets["other"] += max(0.0, span.duration_ms - measured)
        elif span.name in CONTAINER_SPANS:
            self_ms = max(0.0, span.duration_ms - child_ms.get(span.span_id, 0.0))
            for bucket, ms in ops.items():
                report.buckets[bucket] += ms
            report.buckets["python_overhead"] += max(0.0, self_ms - measured)
    return report


def _format_bytes(n: int) -> str:
    """Human-scale byte count."""
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.2f} KiB"
    return f"{n} B"


def render_attribution(report: AttributionReport) -> str:
    """Aligned text rendering of an :class:`AttributionReport`."""
    lines: List[str] = []
    header = (
        f"{'phase':>10} {'count':>7} {'wall ms':>10} {'gemm ms':>9} {'cast ms':>8} "
        f"{'arena ms':>9} {'other ms':>9} {'gemm calls':>11} {'cast calls':>11} "
        f"{'arena bytes':>12}"
    )
    lines.append("wall-clock attribution")
    lines.append(header)
    lines.append("-" * len(header))
    order = [p for p in PHASE_SPANS if p in report.phases]
    order += sorted(set(report.phases) - set(order))
    for name in order:
        p = report.phases[name]
        lines.append(
            f"{p.name:>10} {p.count:>7d} {p.wall_ms:>10.2f} {p.gemm_ms:>9.2f} "
            f"{p.gemm_cast_ms:>8.2f} {p.arena_ms:>9.2f} {p.other_ms:>9.2f} "
            f"{p.gemm_calls:>11d} {p.gemm_cast_calls:>11d} "
            f"{_format_bytes(p.arena_bytes):>12}"
        )
    lines.append("")
    total = report.total_ms

    def share(ms: float) -> str:
        return f"{100.0 * ms / total:5.1f}%" if total > 0 else "    -"

    for bucket in ("gemm", "gemm_cast", "arena_copy", "python_overhead", "other"):
        ms = report.buckets.get(bucket, 0.0)
        lines.append(f"{bucket:>16}: {ms:>10.2f} ms  {share(ms)}")
    lines.append(f"{'residual':>16}: {report.residual_ms:>10.2f} ms  "
                 f"{share(report.residual_ms)}")
    lines.append(f"{'total wall':>16}: {total:>10.2f} ms")
    if report.gemm_gflops_per_s > 0:
        lines.append(f"{'gemm throughput':>16}: {report.gemm_gflops_per_s:>10.2f} GFLOP/s")
    if not report.has_ops:
        lines.append("(no op-level attributes found — was profiling enabled "
                     "during the traced run?)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Latency digests from request_latency spans.
# ---------------------------------------------------------------------------
def collect_latencies(spans: Sequence[SpanRecord]) -> Dict[str, List[float]]:
    """Per-metric latency samples from ``request_latency`` spans."""
    out: Dict[str, List[float]] = {}
    for span in spans:
        if span.name != "request_latency":
            continue
        for metric in LATENCY_METRICS:
            value = span.attrs.get(metric)
            if value is not None:
                out.setdefault(metric, []).append(float(value))
    return out


def summarize_latencies(
    latencies: Dict[str, Sequence[float]],
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
) -> Dict[str, Dict[str, float]]:
    """count / mean / pXX digest per latency metric (exact quantiles)."""
    digest: Dict[str, Dict[str, float]] = {}
    for metric, values in latencies.items():
        values = [float(v) for v in values]
        if not values:
            continue
        row: Dict[str, float] = {
            "count": float(len(values)),
            "mean": sum(values) / len(values),
        }
        for q in quantiles:
            row[f"p{int(round(q * 100))}"] = exact_quantile(values, q)
        digest[metric] = row
    return digest


def _self_check_phase_sets() -> None:
    """Keep the duplicated phase list in sync with the summarizer's."""
    from .summarize import DECODE_PHASES

    if tuple(DECODE_PHASES) != tuple(PHASE_SPANS):
        raise AssertionError(
            f"PHASE_SPANS {PHASE_SPANS} out of sync with "
            f"summarize.DECODE_PHASES {DECODE_PHASES}"
        )
