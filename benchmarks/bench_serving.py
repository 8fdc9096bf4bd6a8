"""Serving throughput: aggregate tokens/s vs. concurrency (1 / 4 / 16 clients).

Each parametrized case serves the same request set through the
continuous-batching scheduler at one batch width and compares against the
sequential single-request baseline on the *server* simulated clock.  Two
claims are asserted:

* **losslessness** — batched greedy outputs are token-identical to
  sequential decoding per request at every concurrency (batching is a
  scheduling change, not a decoding change);
* **throughput** — aggregate tokens/s at concurrency 16 is at least 2x
  the sequential baseline (memory-bound batched pricing, see the
  "Batched serving" section of ``repro/decoding/cost_model.py``);
* **wall-clock scaling** — host ``wall_tok_per_s`` at concurrency 16 is
  at least ``WALL_SCALING_FLOOR`` (1.3x) concurrency 1: the packed
  ragged-batch rounds (``docs/kernels.md``) must win on the *real*
  clock, not only on the simulated one.  Wall times are best-of-3 with
  engine construction hoisted out of the timed region — noise on a
  shared runner only ever *adds* time, so the per-side minimum is the
  robust estimator of the quiet-machine serving cost.  Both sides run
  the same round (``AASDEngine.step_batch``; a batch of one is its
  one-row case) on the same raw-ndarray kernels, so the ratio measures
  what width itself buys: B rows per numpy dispatch instead of one.
  Since every forward reads its weights as float64 operands prepared
  once per engine, not cast on every product (docs/kernels.md §5), c=1
  is 1.3-1.6x faster and c=16 1.05-1.15x, so the ratio fell: five runs
  of both smoke targets measured 1.77-2.07x (sim-7b) and 1.62-1.71x
  (sim-13b), where it had been 2.22-2.39x and 2.34-2.44x on the same
  VM the same day (docs/performance.md lists every run).  The floor,
  1.3x, is a fifth under the lowest run and a third above the ~1.0x
  that reverting to per-request Python loops measures — a regression
  gate, not the headline number.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.eval import build_aasd_engine, save_results
from repro.serving import STATUS_COMPLETED, ServingConfig, serve_requests

from .conftest import RESULTS_DIR, bench_targets

TARGETS = bench_targets()
CONCURRENCY = (1, 4, 16)
N_REQUESTS = 16
GAMMA = 3
WALL_PASSES = 3  # best-of-N wall timing; min is the noise-robust estimator
WALL_SCALING_FLOOR = 1.3  # c=16 over c=1 wall tok/s; measured 1.62-2.07, regression ~1.0
_RESULTS = {}
_SEQUENTIAL = {}

CASES = [(t, c) for t in TARGETS for c in CONCURRENCY]


def _requests(zoo):
    return list(zoo.eval_dataset("coco-sim", N_REQUESTS))


def _engine(zoo, runner, target):
    return build_aasd_engine(
        zoo, target, GAMMA, runner.cost_model(target),
        max_new_tokens=runner.config.max_new_tokens,
    )


@pytest.mark.parametrize("target", TARGETS)
def test_sequential_baseline(benchmark, zoo, runner, target):
    samples = _requests(zoo)

    def run():
        # One engine per pass, built before its timer starts: the wall
        # number is the serving cost, not construction cost.
        engines = [
            [_engine(zoo, runner, target) for _ in samples]
            for _ in range(WALL_PASSES)
        ]
        walls = []
        for pass_engines in engines:
            t0 = time.perf_counter()
            out = [eng.decode(s) for eng, s in zip(pass_engines, samples)]
            walls.append(time.perf_counter() - t0)
        return out, min(walls)

    records, wall_s = benchmark.pedantic(run, rounds=1, iterations=1)
    sim_ms = sum(r.sim_time_ms for r in records)
    tokens = sum(r.n_tokens for r in records)
    _SEQUENTIAL[target] = dict(
        records=records, sim_ms=sim_ms, tokens=tokens, wall_s=wall_s,
    )
    benchmark.extra_info.update(
        {
            "tokens": tokens,
            "sim_ms": sim_ms,
            "tok_per_s": tokens / (sim_ms / 1000.0),
            # End-to-end host throughput: unlike the simulated-clock number
            # this moves with real implementation cost (e.g. KV storage).
            "wall_tok_per_s": tokens / wall_s,
        }
    )


@pytest.mark.parametrize("target,concurrency", CASES,
                         ids=[f"{t}-c{c}" for t, c in CASES])
def test_serving_concurrency(benchmark, zoo, runner, target, concurrency):
    assert target in _SEQUENTIAL, "run the sequential baseline first"
    samples = _requests(zoo)

    def run():
        engines = [_engine(zoo, runner, target) for _ in range(WALL_PASSES)]
        walls = []
        for eng in engines:
            t0 = time.perf_counter()
            out = serve_requests(
                eng, samples, ServingConfig(max_batch_size=concurrency),
            )
            walls.append(time.perf_counter() - t0)
        return out, min(walls)

    report, wall_s = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = _SEQUENTIAL[target]

    assert report.count(STATUS_COMPLETED) == N_REQUESTS
    # Losslessness under batching: per-request greedy outputs identical to
    # sequential decoding at every concurrency.
    for result, solo in zip(report.results, baseline["records"]):
        assert result.record.token_ids == solo.token_ids, result.request_id

    speedup = baseline["sim_ms"] / report.total_sim_ms
    row = {
        "tok_per_s": report.tokens_per_s,
        "speedup": speedup,
        "sim_ms": report.total_sim_ms,
        "rounds": float(report.n_rounds),
        "max_occupancy": float(report.max_batch_occupancy),
        "wall_tok_per_s": report.total_tokens / wall_s,
        "bytes_copied": float(report.bytes_copied),
    }
    # Request-latency digests (server clock): TTFT / TPOT / E2E percentiles.
    for metric, digest in sorted(report.latency_ms.items()):
        for stat in ("p50", "p95", "p99"):
            row[f"{metric}_{stat}"] = digest[stat]
    _RESULTS[(target, concurrency, "serving")] = row
    benchmark.extra_info.update(row)


def test_serving_summary(runner):
    assert len(_RESULTS) == len(CASES), "run the full parametrized set first"
    lines = [
        f"serving throughput (gamma={GAMMA}, {N_REQUESTS} requests, "
        f"{runner.config.max_new_tokens} max tokens)",
        f"{'target':>10} {'conc':>5} {'tok/s':>9} {'speedup':>8} {'rounds':>7} "
        f"{'wall tok/s':>11} {'ttft p50':>9} {'e2e p95':>9}",
    ]
    for (target, concurrency, _), row in sorted(_RESULTS.items()):
        lines.append(
            f"{target:>10} {concurrency:>5} {row['tok_per_s']:>9.1f} "
            f"{row['speedup']:>8.2f} {int(row['rounds']):>7} "
            f"{row['wall_tok_per_s']:>11.1f} {row.get('ttft_ms_p50', 0.0):>9.1f} "
            f"{row.get('e2e_ms_p95', 0.0):>9.1f}"
        )
    rendered = "\n".join(lines)
    print("\n" + rendered)
    save_results(
        _RESULTS, RESULTS_DIR / "serving", rendered=rendered,
        config={
            "profile": os.environ.get("REPRO_BENCH_PROFILE", "full"),
            "targets": list(TARGETS),
            "concurrency": list(CONCURRENCY),
            "n_requests": N_REQUESTS,
            "gamma": GAMMA,
            "max_new_tokens": runner.config.max_new_tokens,
        },
    )

    for target in TARGETS:
        # concurrency 1 must price exactly like sequential decoding
        assert _RESULTS[(target, 1, "serving")]["speedup"] == pytest.approx(1.0)
        # monotone: wider batches never slow aggregate throughput
        assert (_RESULTS[(target, 4, "serving")]["tok_per_s"]
                >= _RESULTS[(target, 1, "serving")]["tok_per_s"])
        assert (_RESULTS[(target, 16, "serving")]["tok_per_s"]
                >= _RESULTS[(target, 4, "serving")]["tok_per_s"])
        # the headline acceptance criterion: >=2x aggregate tokens/s at 16
        assert _RESULTS[(target, 16, "serving")]["speedup"] >= 2.0, _RESULTS[(target, 16, "serving")]
        # real wall-clock scaling: packed ragged-batch rounds must beat
        # one-row-at-a-time execution on the host clock, not just the
        # simulated server clock (docs/kernels.md; docs/performance.md
        # has the measurements behind the floor — scaling is 1.6-2.1x, a
        # per-request-loop regression is ~1.0x)
        wall_1 = _RESULTS[(target, 1, "serving")]["wall_tok_per_s"]
        wall_16 = _RESULTS[(target, 16, "serving")]["wall_tok_per_s"]
        assert wall_16 >= WALL_SCALING_FLOOR * wall_1, (
            f"{target}: wall tok/s scaled only {wall_16 / wall_1:.2f}x "
            f"from c=1 ({wall_1:.1f}) to c=16 ({wall_16:.1f})"
        )
