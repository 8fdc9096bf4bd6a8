"""Profiled serving run: attribution report, flamegraph, latency digests.

Serves a batch of requests through the continuous-batching scheduler on
the smoke-profile zoo with tracing *and* op-level profiling enabled,
then writes every profiling artifact this repo knows how to produce::

    python scripts/profile_serving.py [--out results/profile] \\
        [--concurrency 8] [--requests 8] [--target sim-7b]

Outputs under ``--out``:

* ``trace.jsonl``        — lossless span log (op attrs included)
* ``flamegraph.collapsed`` — collapsed stacks for speedscope/flamegraph.pl
* ``attribution.txt`` / ``attribution.json`` — the {gemm, gemm_cast,
  arena_copy, python_overhead, other} wall-clock split
* ``metrics.json``       — the run's ``ServingReport.summary()``: request
  counts, tokens, KV-arena totals and the TTFT / TPOT / E2E p50/p95/p99
* ``memory.txt`` / ``memory.json`` — where the run's ``peak_rss_mb`` goes:
  parameters, pinned operands, target KV (reserved vs live), draft state
  and the forward transient, at the admission or round that set the peak
  (``repro.serving.memory``)

The attribution table is the quantitative form of the ROADMAP's
wall-clock question: how much of a batched round is fused compute vs.
N× per-request Python.  Inspect any trace later with
``python -m repro.obs summarize --attribution <out>/trace.jsonl``.

The memory table comes from its own pass over the same requests, in a
process of its own that finishes before the attribution pass starts: its
high-water mark starts from a fresh zoo load, as the e2e benchmark's
does, and its tracemalloc runs never touch the attribution pass's wall
clock.

Exits 1 if the run recorded any ``gemm_cast`` product: every forward of a
serving engine reads prepared float64 operands (``docs/kernels.md`` §5),
so a mixed-dtype GEMM means a weight is being cast on every call again.
Exits 1 too if the memory table shows more than
:data:`MAX_DUPLICATE_OPERANDS_MB` of pinned operands beside their float32
arrays (a weight stored twice again: the operand is a pinned weight's one
copy) or a forward transient above :data:`MAX_TRANSIENT_MB` (a prefill no
longer bounded by its row budget).  At 16 requests × 16 they read 0.13
and 1.50 MB.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

from repro.decoding.cost_model import CostModel, get_profile
from repro.eval.baselines import build_aasd_engine
from repro.obs import (
    build_attribution,
    configure_logging,
    enable_profiling,
    enable_tracing,
    export_collapsed,
    export_jsonl,
    get_logger,
    get_profiler,
    render_attribution,
)
from repro.obs.profile import OP_GEMM_CAST
from repro.serving import ServingConfig, serve_requests
from repro.serving.memory import MemoryProbe, MemoryTable, render_memory
from repro.zoo import ModelZoo, PROFILE_SMOKE

logger = get_logger("repro.scripts.profile_serving")

#: Most MB of pinned operands held beside a stored float32 array.
MAX_DUPLICATE_OPERANDS_MB = 0.5
#: Most MB any probed call may peak above what it retains.
MAX_TRANSIENT_MB = 3.0


def _serve(args: argparse.Namespace, probe: bool = False):
    """Serve the batch on a fresh engine: the report, and the probe if asked for."""
    zoo = ModelZoo(PROFILE_SMOKE)
    engine = build_aasd_engine(
        zoo, args.target, args.gamma, CostModel(get_profile(args.target)),
        max_new_tokens=args.max_new_tokens,
    )
    samples = zoo.eval_dataset("coco-sim", args.requests)
    probed = MemoryProbe(engine) if probe else None
    report = serve_requests(engine, samples, ServingConfig(max_batch_size=args.concurrency))
    return report, probed


def memory_pass(args: argparse.Namespace) -> MemoryTable:
    """The memory table of the same run (called in a fresh process)."""
    _, probe = _serve(args, probe=True)
    return probe.table()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/profile")
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--max-new-tokens", type=int, default=24)
    parser.add_argument("--gamma", type=int, default=3)
    parser.add_argument("--target", default="sim-7b")
    args = parser.parse_args()

    configure_logging()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # The memory pass goes first, in a process started while this one is
    # small: Linux carries a process's high-water mark across exec, so a
    # child started after the attribution pass would begin at its peak.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        memory = pool.apply(memory_pass, (args,))

    tracer = enable_tracing()
    enable_profiling()
    report, _ = _serve(args)
    logger.info(
        "served batch",
        extra={"event": "profile_serving_done", **report.summary()},
    )

    spans = tracer.spans
    jsonl = export_jsonl(spans, out_dir / "trace.jsonl")
    flame = export_collapsed(spans, out_dir / "flamegraph.collapsed")
    attribution = build_attribution(spans)
    rendered = render_attribution(attribution)
    (out_dir / "attribution.txt").write_text(rendered + "\n", encoding="utf-8")
    (out_dir / "attribution.json").write_text(
        json.dumps(attribution.to_dict(), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    metrics = out_dir / "metrics.json"
    metrics.write_text(json.dumps(report.summary(), indent=2), encoding="utf-8")

    print(rendered)
    print()
    for metric, digest in sorted(report.latency_ms.items()):
        print(f"{metric:>8}: n={int(digest['count'])} mean {digest['mean']:.1f} "
              f"p50 {digest['p50']:.1f} p95 {digest['p95']:.1f} "
              f"p99 {digest['p99']:.1f} (server ms)")
    memory_txt = render_memory(memory)
    (out_dir / "memory.txt").write_text(memory_txt + "\n", encoding="utf-8")
    (out_dir / "memory.json").write_text(
        json.dumps(memory.to_dict(), indent=2), encoding="utf-8")
    print()
    print(memory_txt)
    print()
    print(f"wrote {jsonl}, {flame}, {out_dir / 'attribution.txt'}, {metrics}, "
          f"{out_dir / 'memory.txt'}")
    failures = []
    casts = get_profiler().op(OP_GEMM_CAST).calls
    if casts:
        failures.append(f"{casts} mixed-dtype GEMMs (gemm_cast) in a serving run")
    largest = {owner: mb for owner, _, mb in memory.rows()}
    if largest["pinned operands"] > MAX_DUPLICATE_OPERANDS_MB:
        failures.append(f"{largest['pinned operands']:.2f} MB of pinned operands beside "
                        f"their float32 arrays (> {MAX_DUPLICATE_OPERANDS_MB} MB)")
    if largest["forward transient"] > MAX_TRANSIENT_MB:
        failures.append(f"a {largest['forward transient']:.2f} MB forward transient "
                        f"(> {MAX_TRANSIENT_MB} MB)")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
