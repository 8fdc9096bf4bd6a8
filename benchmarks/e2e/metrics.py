"""Metric vocabulary of the end-to-end benchmark, and the statistics it uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names,
units and directions; ``manifest()`` renders them as ``BENCHMARK.json`` and
``tests/test_manifest.py`` keeps the checked-in file equal to it.  ``exact``
marks a metric that is a pure function of the code and ``--seed`` (simulated
clock, counts): two runs of one seed must agree bit for bit.  ``moves`` is
the prediction, written before measuring, of which end-to-end metric the
layer metric should move and on which workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Metric", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "MIN_BEYOND",
    "percentile", "median", "manifest",
]

#: ``run_seconds`` of BENCHMARK.json: how long one untraced run measures.
RUN_SECONDS = 15
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    """One reported number: its name, unit, direction and (end to end) bound."""

    name: str
    unit: str
    better: str                    #: ``"higher"`` or ``"lower"``
    bound: Optional[float] = None  #: allowed worsening (end-to-end only)
    exact: bool = False            #: same seed, same code => same bits
    layer: str = ""                #: the repo module the number belongs to
    moves: str = ""                #: predicted end-to-end effect (per-layer only)


def _e2e(name: str, unit: str, better: str, bound: float, exact: bool = False) -> Metric:
    return Metric(name, unit, better, bound=bound, exact=exact)


# Bounds.  The contract judges every end-to-end metric over ten different
# seeds and wants the seed-to-seed spread (IQR / median) under a third of the
# bound, so each bound is about three times the widest spread measured on
# any workload on the shared 2-core reference box, capped at the contract's
# 0.25.  The box drifts by several percent over minutes, which no amount of
# passes inside one run averages out; the exact metrics are deterministic per
# seed and only move with the send order and the sampler seed (the open-loop
# tails of tree_arrivals most).  ``setup_s`` carries the largest bound by
# contract.
END_TO_END: Sequence[Metric] = (
    _e2e("wall_tok_per_s", "tok/s", "higher", 0.20),
    _e2e("sim_tok_per_s", "tok/sim_s", "higher", 0.06, exact=True),
    _e2e("tokens_per_target_forward", "tok/fwd", "higher", 0.05, exact=True),
    _e2e("ttft_wall_ms_p50", "ms", "lower", 0.25),
    _e2e("tpot_wall_ms_p50", "ms", "lower", 0.25),
    _e2e("e2e_wall_ms_p50", "ms", "lower", 0.25),
    _e2e("e2e_wall_ms_p95", "ms", "lower", 0.25),
    _e2e("ttft_sim_ms_p95", "sim_ms", "lower", 0.25, exact=True),
    _e2e("e2e_sim_ms_p95", "sim_ms", "lower", 0.25, exact=True),
    _e2e("slo_attainment", "share", "higher", 0.12, exact=True),
    _e2e("setup_s", "s", "lower", 0.25),
    _e2e("peak_rss_mb", "MB", "lower", 0.20),
)


def _layer(layer: str, moves: str, *rows: Sequence[object]) -> List[Metric]:
    return [
        Metric(str(name), str(unit), str(better), exact=bool(exact),
               layer=layer, moves=moves)
        for name, unit, better, exact in rows
    ]


PER_LAYER: Sequence[Metric] = tuple(
    _layer(
        "serving.queue",
        "ttft_sim_ms_p95, slo_attainment @ tree_arrivals; ~0 on the closed loops",
        ("queue.submit_calls", "count", "lower", True),
        ("queue.depth_max", "count", "lower", True),
        ("queue.wait_sim_ms_p50", "sim_ms", "lower", True),
        ("queue.wait_sim_ms_p95", "sim_ms", "lower", True),
    )
    + _layer(
        "serving.scheduler",
        "wall_tok_per_s @ packed_batch16, sampled_batch8; flipping "
        "packed_round_share on sampled_batch8 should lift that workload only",
        ("scheduler.rounds", "count", "lower", True),
        ("scheduler.batch_occupancy_mean", "count", "higher", True),
        ("scheduler.packed_round_share", "share", "higher", True),
        ("scheduler.round_self_ms_p50", "ms", "lower", False),
        ("scheduler.self_share", "share", "lower", False),
        ("scheduler.ttft_wall_ms_p95", "ms", "lower", False),
        ("scheduler.tpot_wall_ms_p95", "ms", "lower", False),
    )
    + _layer(
        "core.engine",
        "self_share -> wall_tok_per_s, tpot_wall_ms_p50 @ solo_chain; "
        "acceptance_rate -> sim_tok_per_s, tokens_per_target_forward everywhere "
        "and, through queueing, ttft_sim_ms_p95 @ tree_arrivals",
        ("engine.begin_ms_p50", "ms", "lower", False),
        ("engine.step_ms_p50", "ms", "lower", False),
        ("engine.self_share", "share", "lower", False),
        ("engine.acceptance_rate", "share", "higher", True),
        ("engine.block_efficiency_mean", "tok/block", "higher", True),
        ("engine.tree_nodes_per_round_mean", "count", "lower", True),
        ("engine.fallback_steps", "count", "lower", True),
        ("engine.draft_faults", "count", "lower", True),
    )
    + _layer(
        "core.draft_head",
        "busy_share -> tpot_wall_ms_p50 @ solo_chain (gamma tiny steps per "
        "round), little @ packed_batch16 (lockstep); build_context_ms_p50 -> "
        "ttft_wall_ms_p50",
        ("draft_head.step_calls", "count", "lower", True),
        ("draft_head.step_ms_p50", "ms", "lower", False),
        ("draft_head.busy_share", "share", "lower", False),
        ("draft_head.build_context_ms_p50", "ms", "lower", False),
        ("draft_head.wasted_draft_share", "share", "lower", True),
    )
    + _layer(
        "models",
        "prefill_* -> ttft_wall_ms_p50 everywhere, largest share @ "
        "tree_arrivals (4-token requests); verify_busy_share -> "
        "wall_tok_per_s @ packed_batch16 (fused-GEMM floor)",
        ("target.prefill_calls", "count", "lower", True),
        ("target.prefill_ms_p50", "ms", "lower", False),
        ("target.prefill_busy_share", "share", "lower", False),
        ("target.verify_calls", "count", "lower", True),
        ("target.verify_ms_p50", "ms", "lower", False),
        ("target.verify_busy_share", "share", "lower", False),
        ("target.rows_per_verify_mean", "rows", "higher", True),
        ("target.gflops_per_s", "GFLOP/s", "higher", False),
    )
    + _layer(
        "decoding",
        "wall_tok_per_s @ sampled_batch8; negligible on greedy workloads",
        ("verify.calls", "count", "lower", True),
        ("verify.busy_share", "share", "lower", False),
    )
    + _layer(
        "core.kv_arena",
        "wall_tok_per_s @ packed_batch16 (gathers), peak_rss_mb everywhere",
        ("kv.bytes_copied", "bytes", "lower", True),
        ("kv.arena_grows", "count", "lower", True),
        ("kv.peak_cache_tokens", "tokens", "lower", True),
        ("kv.busy_share", "share", "lower", False),
        ("kv.block_gather_ms_p50", "ms", "lower", False),
    )
    + _layer(
        "decoding.cost_model",
        "clock-drift diagnostics (ROADMAP item 2); should move no end-to-end "
        "metric unless prices are re-derived",
        ("sim.prefill_ms", "sim_ms", "lower", True),
        ("sim.draft_ms", "sim_ms", "lower", True),
        ("sim.verify_ms", "sim_ms", "lower", True),
        ("sim.fallback_ms", "sim_ms", "lower", True),
        ("sim.idle_ms", "sim_ms", "lower", True),
        ("sim.speedup_vs_ar", "ratio", "higher", True),
        ("sim_over_wall.prefill", "ratio", "lower", False),
        ("sim_over_wall.draft", "ratio", "lower", False),
        ("sim_over_wall.verify", "ratio", "lower", False),
    )
    + _layer(
        "harness",
        "none; unattributed_share is traced wall under no layer span and "
        "keeps 'name every millisecond' honest from outside",
        ("reference.ar_wall_tok_per_s", "tok/s", "higher", False),
        ("reference.ar_sim_tok_per_s", "tok/sim_s", "higher", True),
        ("zoo.build_s", "s", "lower", False),
        ("harness.trace_overhead_pct", "%", "lower", False),
        ("harness.unattributed_share", "share", "lower", False),
        ("harness.arrival_lateness_sim_ms_p95", "sim_ms", "lower", True),
        ("harness.spans", "count", "lower", True),
    )
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    Above the median the rule of the choosing-metrics guide applies: a
    percentile is reported only when at least :data:`MIN_BEYOND` samples
    lie beyond it; asking for more than the sample supports raises.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50 and n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median with the midpoint convention for even counts."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``, from the tables in this package."""
    from .workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
