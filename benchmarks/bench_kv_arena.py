"""KV arena storage vs. the concatenate baseline (append + rollback).

Two workloads, each run against the arena-backed cache and its
concatenate-on-every-append reference from ``repro.core.reference``:

* **kv_cache** — the target-model pattern: per verify block append
  ``gamma + 1`` tokens to every layer, read the last layer, then roll
  back the rejected suffix (``truncate``), repeated until the sequence
  reaches ``T`` tokens.  The reference pays O(T) reallocation per append
  *and* per truncate; the arena memcpys only new tokens and rolls back
  with a pointer decrement.
* **hybrid** — the speculating-module pattern on the store that still
  grows a context of its own (the Figure 3 head, which encodes its own
  context through ``append_context``): per block ``gamma`` draft steps
  (``gather`` + ``append_draft``), a final ``gather``, then
  ``clear_draft`` and a context append.  The reference grows its lanes
  by concatenation and copies the whole context on every ``gather``.

The summary test times both implementations itself (best-of-N
``perf_counter``) so the headline assertion — **arena >= 5x faster at
T >= 1024** — holds even under ``--benchmark-disable``; the
pytest-benchmark cases exist so the CI perf job's JSON artifact tracks
the same numbers over time.

Knobs: ``REPRO_BENCH_ARENA_TOKENS`` (default 1024; the acceptance bound
is only asserted at >= 1024).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.hybrid_cache import HybridKVCache
from repro.core.reference import ReferenceHybridKVCache, ReferenceKVCache
from repro.eval import save_results
from repro.models.kv_cache import KVCache

from .conftest import RESULTS_DIR

T_TOKENS = max(int(os.environ.get("REPRO_BENCH_ARENA_TOKENS", "1024")), 8)
N_LAYERS = 2
N_HEADS = 16
HEAD_DIM = 128
GAMMA = 3
APPEND = GAMMA + 1      # tokens appended per verify block
ROLLBACK = 2            # rejected suffix rolled back per block
N_VISION = 8
MIN_SPEEDUP = 5.0

_RESULTS = {}
_BLOCKS = None


def _blocks():
    """Pregenerated per-block (k, v, positions) arrays, RNG outside timing."""
    global _BLOCKS
    if _BLOCKS is None:
        rng = np.random.default_rng(0)
        n_blocks = (T_TOKENS + APPEND - ROLLBACK - 1) // (APPEND - ROLLBACK)
        _BLOCKS = [
            (
                rng.standard_normal((1, N_HEADS, APPEND, HEAD_DIM)).astype(np.float32),
                rng.standard_normal((1, N_HEADS, APPEND, HEAD_DIM)).astype(np.float32),
                np.arange(i * APPEND, (i + 1) * APPEND, dtype=np.int64),
            )
            for i in range(n_blocks)
        ]
    return _BLOCKS


def run_kv_workload(cache_cls):
    """Append-read-rollback loop on a per-layer cache until T_TOKENS."""
    cache = cache_cls(N_LAYERS)
    for k, v, pos in _blocks():
        for layer in range(N_LAYERS):
            cache.append(layer, k, v)
        cache.extend_positions(pos)
        cache.last_layer()
        cache.truncate(cache.seq_len - ROLLBACK)
    return cache


def run_hybrid_workload(cache_cls):
    """Draft-gather-rollback loop on a hybrid cache until T_TOKENS context."""
    cache = cache_cls(N_HEADS, HEAD_DIM)
    blocks = _blocks()
    vis_k, vis_v, _ = blocks[0]
    vis = vis_k[:, :, :1, :], vis_v[:, :, :1, :]
    cache.append_context(
        np.repeat(vis[0], N_VISION, axis=2),
        np.repeat(vis[1], N_VISION, axis=2),
    )
    for k, v, _ in blocks:
        for g in range(GAMMA):
            cache.gather()
            cache.append_draft(k[:, :, g : g + 1, :], v[:, :, g : g + 1, :])
        cache.gather()
        cache.clear_draft()
        cache.append_context(k[:, :, :ROLLBACK, :], v[:, :, :ROLLBACK, :])
    return cache


WORKLOADS = {
    "kv_cache": (run_kv_workload, KVCache, ReferenceKVCache),
    "hybrid": (run_hybrid_workload, HybridKVCache, ReferenceHybridKVCache),
}


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_arena(benchmark, workload):
    run, arena_cls, _ = WORKLOADS[workload]
    cache = benchmark(lambda: run(arena_cls))
    stats = cache.arena_stats()
    benchmark.extra_info.update(
        {
            "tokens": T_TOKENS,
            "bytes_copied": stats.bytes_copied,
            "grow_events": stats.grow_events,
            "peak_tokens": stats.peak_tokens,
        }
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference(benchmark, workload):
    run, _, reference_cls = WORKLOADS[workload]
    benchmark.pedantic(lambda: run(reference_cls), rounds=1, iterations=1)
    benchmark.extra_info.update({"tokens": T_TOKENS})


def test_speedup_summary():
    """The acceptance bound: arena >= 5x faster than concatenate at T >= 1024."""
    lines = [
        f"KV arena vs concatenate baseline (T={T_TOKENS}, "
        f"{N_LAYERS} layers, H={N_HEADS}, Dh={HEAD_DIM}, "
        f"append {APPEND} / rollback {ROLLBACK} per block)",
        f"{'workload':>10} {'arena ms':>10} {'naive ms':>10} {'speedup':>8}",
    ]
    for workload, (run, arena_cls, reference_cls) in sorted(WORKLOADS.items()):
        arena_end = run(arena_cls)
        naive_end = run(reference_cls)
        _assert_same_end_state(workload, arena_end, naive_end)
        arena_s = _best_of(lambda: run(arena_cls), rounds=3)
        naive_s = _best_of(lambda: run(reference_cls), rounds=2)
        speedup = naive_s / arena_s
        _RESULTS[("arena", GAMMA, workload)] = {
            "tokens": float(T_TOKENS),
            "arena_ms": arena_s * 1e3,
            "naive_ms": naive_s * 1e3,
            "speedup": speedup,
        }
        lines.append(
            f"{workload:>10} {arena_s * 1e3:>10.2f} {naive_s * 1e3:>10.2f} "
            f"{speedup:>8.1f}"
        )
    rendered = "\n".join(lines)
    print("\n" + rendered)
    save_results(
        _RESULTS, RESULTS_DIR / "kv_arena", rendered=rendered,
        config={
            "tokens": T_TOKENS,
            "n_layers": N_LAYERS,
            "n_heads": N_HEADS,
            "head_dim": HEAD_DIM,
            "gamma": GAMMA,
            "append": APPEND,
            "rollback": ROLLBACK,
        },
    )

    if T_TOKENS >= 1024:
        for key, row in _RESULTS.items():
            assert row["speedup"] >= MIN_SPEEDUP, (key, row)


def _assert_same_end_state(workload, arena_end, naive_end):
    """Both implementations must agree element-for-element after the run."""
    if workload == "kv_cache":
        assert arena_end.seq_len == naive_end.seq_len
        np.testing.assert_array_equal(arena_end.positions, naive_end.positions)
        for i in range(N_LAYERS):
            for a, b in zip(arena_end.layer(i), naive_end.layer(i)):
                np.testing.assert_array_equal(a, b)
    else:
        assert (arena_end.context_len, arena_end.seq_len) == (
            naive_end.context_len, naive_end.seq_len)
        for (ka, va), (kb, vb) in zip(arena_end.gather(), naive_end.gather()):
            np.testing.assert_array_equal(ka, kb)
            np.testing.assert_array_equal(va, vb)
