"""Perf-regression gate: compare benchmark results to a checked-in baseline.

``scripts/perf_gate.py`` (the CLI over this module) guards the perf
trajectory with a checked-in baseline
(``results/perf_baseline.json``) that records the blessed value of
every gated metric, and updates require a real justification — empty or
``TODO`` justifications are rejected, and the full update history
(timestamp, git SHA, reason) accumulates inside the baseline file so
``git log`` plus the file itself reconstruct every intentional shift.

The gate reads the schema-stamped envelopes the benchmarks save into
``results/`` (see :mod:`repro.eval.reporting`; parsed standalone here so
``repro.obs`` stays a foundation module with no eval dependency):

* metrics are gated **per direction** (``higher`` is better for
  throughput/speedup, ``lower`` for latency/ms) with a per-metric
  relative tolerance;
* deterministic simulated-clock metrics get tight tolerances (the sim
  clock is exactly reproducible for a given zoo profile), wall-clock
  metrics get generous ones (CI machines are noisy) — both loud enough
  to catch an order-of-magnitude regression;
* a source whose recorded benchmark config does not match the
  baseline's is *skipped*, not failed: runs at different token budgets
  or zoo profiles are incomparable, and silently comparing them would
  gate on noise.

Exit contract of the CLI: 0 when nothing regressed beyond tolerance,
1 on regression (or a missing results file), always 0 in
``--report-only`` mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigError

__all__ = [
    "MetricSpec",
    "GateEntry",
    "GateReport",
    "DEFAULT_SPECS",
    "BASELINE_SCHEMA",
    "build_baseline",
    "load_baseline",
    "compare",
    "render_gate_report",
    "validate_justification",
]

PathLike = Union[str, Path]

#: Version of the baseline file layout.
BASELINE_SCHEMA = 1

STATUS_OK = "ok"
STATUS_REGRESSED = "regressed"
STATUS_IMPROVED = "improved"
STATUS_MISSING = "missing"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is gated: which way is better, how much slack."""

    metric: str
    direction: str        #: ``higher`` or ``lower`` is better
    rel_tol: float        #: relative tolerance before a change regresses

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ConfigError(
                f"metric {self.metric}: direction must be higher/lower, "
                f"got {self.direction!r}"
            )
        if not 0.0 <= self.rel_tol < 10.0:
            raise ConfigError(
                f"metric {self.metric}: rel_tol {self.rel_tol} out of range"
            )


#: What each benchmark source gates by default.  Simulated-clock metrics
#: are deterministic per zoo profile — tight 2% tolerance.  Wall-clock
#: metrics move with the CI machine — 60% slack still catches the
#: pathological regressions (an accidental O(T^2) reintroduction shifts
#: these by integer factors).
DEFAULT_SPECS: Dict[str, Tuple[MetricSpec, ...]] = {
    "serving": (
        MetricSpec("speedup", "higher", 0.02),
        MetricSpec("tok_per_s", "higher", 0.02),
        MetricSpec("sim_ms", "lower", 0.02),
        MetricSpec("ttft_ms_p50", "lower", 0.02),
        MetricSpec("e2e_ms_p95", "lower", 0.02),
        MetricSpec("wall_tok_per_s", "higher", 0.60),
    ),
    "kv_arena": (
        MetricSpec("speedup", "higher", 0.60),
        MetricSpec("arena_ms", "lower", 0.60),
    ),
    "tree": (
        MetricSpec("apf", "higher", 0.02),
        MetricSpec("sim_ms", "lower", 0.02),
        MetricSpec("tok_per_s", "higher", 0.02),
    ),
}


@dataclass(frozen=True)
class GateEntry:
    """One (source, row, metric) comparison outcome."""

    source: str
    row: str
    metric: str
    status: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    rel_tol: float = 0.0
    direction: str = "higher"
    note: str = ""

    @property
    def rel_change(self) -> Optional[float]:
        """Signed relative change, positive = metric went up."""
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class GateReport:
    """Every comparison the gate made, plus the verdict."""

    entries: List[GateEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[GateEntry]:
        return [e for e in self.entries if e.status == STATUS_REGRESSED]

    @property
    def missing(self) -> List[GateEntry]:
        return [e for e in self.entries if e.status == STATUS_MISSING]

    @property
    def passed(self) -> bool:
        """True when no gated metric regressed and nothing was missing."""
        return not self.regressions and not self.missing

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "n_regressions": len(self.regressions),
            "n_missing": len(self.missing),
            "entries": [
                {
                    "source": e.source,
                    "row": e.row,
                    "metric": e.metric,
                    "status": e.status,
                    "baseline": e.baseline,
                    "current": e.current,
                    "rel_change": e.rel_change,
                    "rel_tol": e.rel_tol,
                    "direction": e.direction,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def validate_justification(justification: str) -> str:
    """Reject a justification shorter than 10 characters or a placeholder.

    A placeholder is text starting with ``TODO``, ``FIXME``, ``XXX`` or
    ``TBD`` (any case).  A baseline update is a statement that the perf
    shift is intentional; placeholder text defers that statement, which
    defeats the gate.  Returns the stripped text.
    """
    text = (justification or "").strip()
    if len(text) < 10:
        raise ConfigError(
            "baseline update needs a real justification (>= 10 characters) "
            "explaining why the perf shift is intentional"
        )
    lowered = text.lower()
    if lowered.startswith(("todo", "fixme", "xxx", "tbd")):
        raise ConfigError(
            f"placeholder justification rejected: {text!r} — state why the "
            "new numbers are correct, not that you will later"
        )
    return text


# ---------------------------------------------------------------------------
# Results-envelope access (standalone: repro.obs must not import repro.eval).
# ---------------------------------------------------------------------------
def _load_rows(path: Path) -> Tuple[Dict[str, Dict[str, float]], Dict[str, object]]:
    """``(flat rows, meta)`` from a results file (envelope or legacy flat)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict) and "schema" in payload and "results" in payload:
        return dict(payload["results"]), dict(payload.get("meta", {}))
    return dict(payload), {}


def build_baseline(
    results_dir: PathLike,
    justification: str,
    specs: Optional[Mapping[str, Tuple[MetricSpec, ...]]] = None,
    previous: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Snapshot the current ``results/`` files into a baseline document.

    Carries forward the update history from ``previous`` (if given) and
    appends this update's justification; missing source files are an
    error — a baseline must bless every gated source.
    """
    text = validate_justification(justification)
    specs = dict(DEFAULT_SPECS if specs is None else specs)
    results_dir = Path(results_dir)
    sources: Dict[str, object] = {}
    for source, metric_specs in sorted(specs.items()):
        path = results_dir / f"{source}.json"
        if not path.exists():
            raise ConfigError(
                f"cannot build baseline: {path} missing — run the "
                f"{source} benchmark first"
            )
        rows, row_meta = _load_rows(path)
        gated_rows: Dict[str, Dict[str, Dict[str, object]]] = {}
        for row_key, metrics in sorted(rows.items()):
            gated: Dict[str, Dict[str, object]] = {}
            for spec in metric_specs:
                if spec.metric in metrics:
                    gated[spec.metric] = {
                        "value": float(metrics[spec.metric]),
                        "direction": spec.direction,
                        "rel_tol": spec.rel_tol,
                    }
            if gated:
                gated_rows[row_key] = gated
        sources[source] = {
            "config": dict(row_meta.get("config", {})),
            "rows": gated_rows,
        }
    history = list(previous.get("updated", [])) if previous else []
    entry: Dict[str, object] = {"justification": text}
    if meta:
        entry.update({k: meta[k] for k in ("created_utc", "git_sha") if k in meta})
    history.append(entry)
    return {"schema": BASELINE_SCHEMA, "updated": history, "sources": sources}


def load_baseline(path: PathLike) -> Dict[str, object]:
    """Load and sanity-check a baseline document."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(
            f"perf baseline not found: {path} — create it with "
            "scripts/perf_gate.py update --justification '...'"
        )
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA or "sources" not in payload:
        raise ConfigError(f"{path}: not a schema-{BASELINE_SCHEMA} perf baseline")
    return payload


def compare(results_dir: PathLike, baseline: Mapping[str, object]) -> GateReport:
    """Gate the current ``results/`` files against ``baseline``."""
    report = GateReport()
    results_dir = Path(results_dir)
    for source, source_doc in sorted(baseline["sources"].items()):  # type: ignore[union-attr]
        path = results_dir / f"{source}.json"
        if not path.exists():
            report.entries.append(GateEntry(
                source=source, row="*", metric="*", status=STATUS_MISSING,
                note=f"{path} not found — benchmark did not run",
            ))
            continue
        rows, meta = _load_rows(path)
        base_config = dict(source_doc.get("config", {}))
        run_config = dict(meta.get("config", {}))
        if base_config and run_config and base_config != run_config:
            report.entries.append(GateEntry(
                source=source, row="*", metric="*", status=STATUS_SKIPPED,
                note=(f"config mismatch (baseline {base_config} vs "
                      f"run {run_config}) — runs not comparable"),
            ))
            continue
        for row_key, gated in sorted(source_doc.get("rows", {}).items()):
            current_row = rows.get(row_key)
            for metric, spec in sorted(gated.items()):
                base_value = float(spec["value"])
                direction = str(spec["direction"])
                rel_tol = float(spec["rel_tol"])
                if current_row is None or metric not in current_row:
                    report.entries.append(GateEntry(
                        source=source, row=row_key, metric=metric,
                        status=STATUS_MISSING, baseline=base_value,
                        rel_tol=rel_tol, direction=direction,
                        note="metric absent from current results",
                    ))
                    continue
                current = float(current_row[metric])
                scale = abs(base_value) if base_value != 0 else 1.0
                delta = (current - base_value) / scale
                worse = -delta if direction == "higher" else delta
                if worse > rel_tol:
                    status = STATUS_REGRESSED
                elif worse < -rel_tol:
                    status = STATUS_IMPROVED
                else:
                    status = STATUS_OK
                report.entries.append(GateEntry(
                    source=source, row=row_key, metric=metric, status=status,
                    baseline=base_value, current=current,
                    rel_tol=rel_tol, direction=direction,
                ))
    return report


def render_gate_report(report: GateReport, verbose: bool = False) -> str:
    """Aligned text rendering; non-ok entries always shown."""
    lines: List[str] = []
    header = (
        f"{'source':>9} {'row':>22} {'metric':>16} {'baseline':>11} "
        f"{'current':>11} {'change':>8} {'tol':>6}  status"
    )
    lines.append("perf gate report")
    lines.append(header)
    lines.append("-" * len(header))
    shown = 0
    for entry in report.entries:
        if entry.status == STATUS_OK and not verbose:
            continue
        shown += 1
        change = entry.rel_change
        lines.append(
            f"{entry.source:>9} {entry.row:>22} {entry.metric:>16} "
            f"{'-' if entry.baseline is None else format(entry.baseline, '11.2f')} "
            f"{'-' if entry.current is None else format(entry.current, '11.2f')} "
            f"{'-' if change is None else format(100 * change, '+7.1f') + '%'} "
            f"{100 * entry.rel_tol:>5.0f}%  {entry.status}"
            + (f"  ({entry.note})" if entry.note else "")
        )
    if shown == 0:
        lines.append("(all gated metrics within tolerance)")
    n_ok = sum(1 for e in report.entries if e.status == STATUS_OK)
    lines.append("")
    lines.append(
        f"{len(report.entries)} comparisons: {n_ok} ok, "
        f"{len(report.regressions)} regressed, "
        f"{sum(1 for e in report.entries if e.status == STATUS_IMPROVED)} improved, "
        f"{len(report.missing)} missing, "
        f"{sum(1 for e in report.entries if e.status == STATUS_SKIPPED)} skipped"
    )
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
