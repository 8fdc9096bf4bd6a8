"""Per-layer metrics of one traced pass: counts, busy time, wasted work.

Counts and simulated-clock numbers come from the pass itself (they are
exact); every ``*_ms`` / ``*_share`` number comes from the span summary of
the traced pass, with shares taken of the traced wall.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .drive import PassResult, ar_priced_sim_ms
from .metrics import percentile
from .trace import Recorder, Summary

__all__ = ["per_layer"]


def _forward_flops(llama_config, rows_kv: Sequence[Sequence[int]]) -> float:
    """Computed FLOPs of one target forward from the model dims and rows fed.

    Per fed row and layer: the q/k/v/o projections (``8 d^2``), the SwiGLU
    MLP (``6 d h``) and attention over the cached keys plus the feed
    (``4 d (kv + rows)``); once per row the LM head (``2 d V``).  The
    vision tower of a prefill is not counted.
    """
    d, h = llama_config.dim, llama_config.mlp_hidden
    total = 0.0
    for rows, kv in rows_kv:
        per_layer = 8 * d * d + 6 * d * h + 4 * d * (kv + rows)
        total += rows * (llama_config.n_layers * per_layer + 2 * d * llama_config.vocab_size)
    return total


def per_layer(p: PassResult, rec: Recorder, s: Summary, engine,
              untraced_wall_s: float, reference: Dict[str, float],
              zoo_build_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric for the traced pass ``p``."""
    wall_ms = p.wall_s * 1e3
    lat = p.latencies

    def stats(*labels: str):
        """(calls, durations) of every span under any of ``labels``."""
        durations = [d for name in labels for d in s.durations_ms.get(name, ())]
        return len(durations), durations

    def p50(durations: Sequence[float]) -> float:
        return percentile(durations, 50) if durations else 0.0

    def share(layer: str, table: Dict[str, float]) -> float:
        return table.get(layer, 0.0) / wall_ms

    records = [r.record for r in p.results if r.record is not None]
    blocks = [b for r in records for b in r.blocks]
    drafted = sum(b.n_draft for b in blocks)
    accepted = sum(b.n_accepted for b in blocks)
    sim = p.sim_by_category
    busy_sim_ms = sum(ms for cat, ms in sim.items() if cat != "idle")

    # Engine step calls made by a scheduler round (a step nested in
    # step_batch belongs to its parent): occupancy per round, and the share
    # of rounds that took the packed step.
    round_steps = [
        i for i, label in enumerate(rec.label)
        if label in ("engine.step", "engine.step_batch")
        and rec.parent[i] >= 0 and rec.label[rec.parent[i]] == "scheduler.run_round"
    ]
    stepped_per_round: Dict[int, int] = {}
    for i in round_steps:
        stepped_per_round[rec.parent[i]] = (
            stepped_per_round.get(rec.parent[i], 0) + len(rec.detail[i]))
    packed_rounds = {rec.parent[i] for i in round_steps if rec.label[i] == "engine.step_batch"}
    n_stepping = max(1, len(stepped_per_round))

    round_self = [s.self_ms[i] for i, label in enumerate(rec.label)
                  if label == "scheduler.run_round"]
    _, begin_ms = stats("engine.begin", "engine.begin_batch")
    step_ms = [(rec.end[i] - rec.start[i]) * 1e3 for i in round_steps]
    head_calls, head_ms = stats("draft_head.step", "draft_head.step_packed",
                                "draft_head.draft_tree")
    _, context_ms = stats("draft_head.build_context")
    prefill_calls, prefill_ms = stats("target.prefill", "target.prefill_batch")
    verify_calls, verify_ms = stats("target.decode", "target.decode_batch")
    accept_calls, _ = stats("verify.speculative_verify", "verify.accept_tree", "verify.sample")
    _, gather_ms = stats("kv.BlockTable.packed_layer", "kv.BlockTable.gather_rows")

    verify_rows = [sum(rows for rows, _ in rec.detail[i])
                   for i, label in enumerate(rec.label)
                   if label in ("target.decode", "target.decode_batch")]
    flops = sum(
        _forward_flops(engine.target.config.llama, rec.detail[i])
        for i, label in enumerate(rec.label) if label.startswith("target.")
    )
    target_busy_ms = (s.layer_busy_ms.get("target.prefill", 0.0)
                      + s.layer_busy_ms.get("target.verify", 0.0))
    head_busy_ms = s.layer_busy_ms.get("draft_head", 0.0)
    context_busy_ms = sum(context_ms)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "queue.submit_calls": stats("queue.submit")[0],
        "queue.depth_max": p.queue_depth_max,
        "queue.wait_sim_ms_p50": percentile(lat["queue_sim"], 50),
        "queue.wait_sim_ms_p95": percentile(lat["queue_sim"], 95),
        "scheduler.rounds": p.n_rounds,
        "scheduler.batch_occupancy_mean": sum(stepped_per_round.values()) / n_stepping,
        "scheduler.packed_round_share": len(packed_rounds) / n_stepping,
        "scheduler.round_self_ms_p50": p50(round_self),
        "scheduler.self_share": share("scheduler", s.layer_self_ms),
        "scheduler.ttft_wall_ms_p95": percentile(lat["ttft_wall"], 95),
        "scheduler.tpot_wall_ms_p95": percentile(lat["tpot_wall"], 95),
        "engine.begin_ms_p50": p50(begin_ms),
        "engine.step_ms_p50": p50(step_ms),
        "engine.self_share": share("engine", s.layer_self_ms),
        "engine.acceptance_rate": ratio(accepted, drafted),
        "engine.block_efficiency_mean": ratio(sum(b.n_emitted for b in blocks), len(blocks)),
        "engine.tree_nodes_per_round_mean":
            ratio(drafted, len(blocks)) if p.workload.tree else 0.0,
        "engine.fallback_steps": sum(r.n_fallback_steps for r in records),
        "engine.draft_faults": sum(r.n_draft_faults for r in records),
        "draft_head.step_calls": head_calls,
        "draft_head.step_ms_p50": p50(head_ms),
        "draft_head.busy_share": share("draft_head", s.layer_busy_ms),
        "draft_head.build_context_ms_p50": p50(context_ms),
        "draft_head.wasted_draft_share": ratio(drafted - accepted, drafted),
        "target.prefill_calls": prefill_calls,
        "target.prefill_ms_p50": p50(prefill_ms),
        "target.prefill_busy_share": share("target.prefill", s.layer_busy_ms),
        "target.verify_calls": verify_calls,
        "target.verify_ms_p50": p50(verify_ms),
        "target.verify_busy_share": share("target.verify", s.layer_busy_ms),
        "target.rows_per_verify_mean": ratio(sum(verify_rows), len(verify_rows)),
        "target.gflops_per_s": ratio(flops / 1e9, target_busy_ms / 1e3),
        "verify.calls": accept_calls,
        "verify.busy_share": share("verify", s.layer_busy_ms),
        "kv.bytes_copied": p.bytes_copied,
        "kv.arena_grows": p.arena_grows,
        "kv.peak_cache_tokens": p.peak_cache_tokens,
        "kv.busy_share": share("kv", s.layer_busy_ms),
        "kv.block_gather_ms_p50": p50(gather_ms),
        "sim.prefill_ms": sim.get("prefill", 0.0),
        "sim.draft_ms": sim.get("draft", 0.0),
        "sim.verify_ms": sim.get("verify", 0.0),
        "sim.fallback_ms": sim.get("fallback", 0.0),
        "sim.idle_ms": sim.get("idle", 0.0),
        "sim.speedup_vs_ar": ratio(ar_priced_sim_ms(p, engine.cost_model), busy_sim_ms),
        "sim_over_wall.prefill": ratio(
            sim.get("prefill", 0.0),
            s.layer_busy_ms.get("target.prefill", 0.0) + context_busy_ms),
        "sim_over_wall.draft": ratio(sim.get("draft", 0.0), head_busy_ms - context_busy_ms),
        "sim_over_wall.verify": ratio(
            sim.get("verify", 0.0) + sim.get("fallback", 0.0),
            s.layer_busy_ms.get("target.verify", 0.0)),
        "reference.ar_wall_tok_per_s": reference["ar_wall_tok_per_s"],
        "reference.ar_sim_tok_per_s": reference["ar_sim_tok_per_s"],
        "zoo.build_s": zoo_build_s,
        "harness.trace_overhead_pct": (p.wall_s / untraced_wall_s - 1.0) * 100.0,
        "harness.unattributed_share": 1.0 - s.covered_ms / wall_ms,
        "harness.arrival_lateness_sim_ms_p95": percentile(lat["late_sim"], 95),
        "harness.spans": len(rec),
    }
