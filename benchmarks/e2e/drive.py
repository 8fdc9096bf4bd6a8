"""Drive one pass of a workload through the scheduler and stamp both clocks.

Tokens reach a client when ``run_round()`` returns, so on *both* clocks a
request's first-token time is the end of the round that admitted it and its
finish time is the end of the round after which its handle is done.  The
driver stamps ``(perf_counter, scheduler.now_ms)`` around every round and
joins requests to rounds on ``ServeResult.started_ms``; nothing private is
read.  Open-loop latency is counted from the *due* time of a request, not
from when the generator got round to submitting it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.decoding import CostModel
from repro.serving import ContinuousBatchingScheduler, ServeRequest, ServeResult, ServingConfig

from .metrics import percentile
from .workloads import MAX_NEW_TOKENS, Workload

__all__ = ["PassResult", "run_pass", "end_to_end", "failures"]


@dataclass
class PassResult:
    """Everything one pass over the request list produced."""

    workload: Workload
    requests: Sequence[ServeRequest]
    results: List[ServeResult]
    origin_wall: List[float]      #: host time a request's latency counts from
    origin_sim: List[float]       #: simulated ms its latency counts from
    sent_sim: List[float]         #: simulated ms at the actual submit call
    first_wall: List[float]       #: end of the admitting round, host clock
    first_sim: List[float]        #: end of the admitting round, simulated ms
    finish_wall: List[float]      #: end of the retiring round, host clock
    finish_sim: List[float]       #: end of the retiring round, simulated ms
    wall_s: float                 #: first submit -> last retirement, host clock
    sim_by_category: Dict[str, float]
    n_rounds: int
    queue_depth_max: int
    bytes_copied: int
    arena_grows: int
    peak_cache_tokens: int
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    slo_attained: int = 0         #: requests with simulated TTFT and TPOT in limits

    @property
    def tokens(self) -> List[List[int]]:
        """Emitted token ids per request (empty for a request with no record)."""
        return [list(r.record.token_ids) if r.record is not None else []
                for r in self.results]


def run_pass(workload: Workload, engine, requests: Sequence[ServeRequest],
             due_ms: Optional[Sequence[float]] = None) -> PassResult:
    """Serve ``requests`` once on a fresh scheduler; closed or open loop.

    Closed loop: ``workload.clients`` requests are kept in flight, the next
    one submitted when one retires.  Open loop: request ``i`` is submitted at
    the first round boundary at or after ``due_ms[i]`` on the simulated
    clock; with nothing in the system the clock is advanced to the next due
    time as ``idle`` (which costs no host time).
    """
    n = len(requests)
    scheduler = ContinuousBatchingScheduler(
        engine, ServingConfig(max_batch_size=workload.max_batch_size, max_queue_depth=n),
    )
    clock = scheduler.clock
    handles: list = [None] * n
    sent_wall = [0.0] * n
    sent_sim = [0.0] * n
    done_round = [-1] * n
    rounds_w0: List[float] = []
    rounds_s0: List[float] = []
    rounds_w1: List[float] = []
    rounds_s1: List[float] = []
    in_flight: List[int] = []
    depth_max = 0
    next_i = 0

    t_start = perf_counter()
    while True:
        now = scheduler.now_ms
        while next_i < n and (
            due_ms[next_i] <= now if due_ms is not None
            else len(in_flight) < workload.clients
        ):
            sent_sim[next_i] = now
            sent_wall[next_i] = perf_counter()
            handles[next_i] = scheduler.submit(requests[next_i])
            in_flight.append(next_i)
            next_i += 1
        if not in_flight:
            if next_i >= n:
                break
            clock.charge(due_ms[next_i] - now, "idle")
            continue
        depth_max = max(depth_max, scheduler.queue.depth)
        rounds_s0.append(now)
        rounds_w0.append(perf_counter())
        scheduler.run_round()
        rounds_w1.append(perf_counter())
        rounds_s1.append(scheduler.now_ms)
        this_round = len(rounds_w1) - 1
        still = []
        for i in in_flight:
            if handles[i].done:
                done_round[i] = this_round
            else:
                still.append(i)
        in_flight = still
    t_end = perf_counter()

    results = [h.result(timeout=0) for h in handles]
    round_by_start = {s0: k for k, s0 in enumerate(rounds_s0)}
    first_wall, first_sim, finish_wall, finish_sim = [], [], [], []
    origin_wall, origin_sim = [], []
    for i, result in enumerate(results):
        admitted = round_by_start.get(result.started_ms, done_round[i])
        first_wall.append(rounds_w1[admitted])
        first_sim.append(rounds_s1[admitted])
        finish_wall.append(rounds_w1[done_round[i]])
        finish_sim.append(rounds_s1[done_round[i]])
        if due_ms is None:
            origin_sim.append(sent_sim[i])
            origin_wall.append(sent_wall[i])
        else:
            origin_sim.append(due_ms[i])
            origin_wall.append(_wall_at(due_ms[i], sent_wall[i],
                                        rounds_s0, rounds_w0, rounds_s1, rounds_w1))

    memory = scheduler.memory
    out = PassResult(
        workload=workload, requests=requests, results=results,
        origin_wall=origin_wall, origin_sim=origin_sim, sent_sim=sent_sim,
        first_wall=first_wall, first_sim=first_sim,
        finish_wall=finish_wall, finish_sim=finish_sim,
        wall_s=t_end - t_start,
        sim_by_category=dict(clock.by_category),
        n_rounds=scheduler.n_rounds,
        queue_depth_max=depth_max,
        bytes_copied=memory.bytes_copied,
        arena_grows=memory.grow_events,
        peak_cache_tokens=memory.peak_tokens,
    )
    out.latencies, out.slo_attained = _latencies(out)
    return out


def _wall_at(due: float, sent_wall: float, s0: Sequence[float], w0: Sequence[float],
             s1: Sequence[float], w1: Sequence[float]) -> float:
    """Host time at which the simulated clock read ``due``.

    Inside a round the two clocks are interpolated linearly; a due time
    that fell into an idle gap (or before the first round) was submitted
    the moment it was due, so the submit stamp is the answer.
    """
    k = bisect_left(s1, due)
    if k >= len(s1) or due <= s0[k]:
        return sent_wall
    share = (due - s0[k]) / (s1[k] - s0[k])
    return w0[k] + share * (w1[k] - w0[k])


def _latencies(p: PassResult) -> Tuple[Dict[str, List[float]], int]:
    """Per-request latency samples (ms) on both clocks, and the SLO count.

    Only completed requests contribute samples; a request that failed also
    misses the SLO.
    """
    w = p.workload
    out: Dict[str, List[float]] = {
        key: [] for key in ("ttft_wall", "tpot_wall", "e2e_wall",
                            "ttft_sim", "tpot_sim", "e2e_sim", "queue_sim", "late_sim")
    }
    attained = 0
    for i, result in enumerate(p.results):
        if not result.ok or result.record is None:
            continue
        n_tokens = result.record.n_tokens
        ttft_sim = p.first_sim[i] - p.origin_sim[i]
        tpot_sim = 0.0
        out["ttft_wall"].append((p.first_wall[i] - p.origin_wall[i]) * 1e3)
        out["e2e_wall"].append((p.finish_wall[i] - p.origin_wall[i]) * 1e3)
        out["ttft_sim"].append(ttft_sim)
        out["e2e_sim"].append(p.finish_sim[i] - p.origin_sim[i])
        out["queue_sim"].append(result.started_ms - p.origin_sim[i])
        out["late_sim"].append(p.sent_sim[i] - p.origin_sim[i])
        if n_tokens > 1:
            tpot_sim = (p.finish_sim[i] - p.first_sim[i]) / (n_tokens - 1)
            out["tpot_sim"].append(tpot_sim)
            out["tpot_wall"].append(
                (p.finish_wall[i] - p.first_wall[i]) * 1e3 / (n_tokens - 1))
        if ttft_sim <= w.slo_ttft_sim_ms and tpot_sim <= w.slo_tpot_sim_ms:
            attained += 1
    return out, attained


def end_to_end(p: PassResult) -> Dict[str, float]:
    """The per-pass end-to-end metrics (``setup_s`` / ``peak_rss_mb`` are per run)."""
    records = [r.record for r in p.results if r.record is not None]
    tokens = sum(r.n_tokens for r in records)
    forwards = sum(r.n_target_forwards for r in records)
    busy_sim_ms = sum(ms for cat, ms in p.sim_by_category.items() if cat != "idle")
    lat = p.latencies
    return {
        "wall_tok_per_s": tokens / p.wall_s,
        "sim_tok_per_s": tokens / (busy_sim_ms / 1e3),
        "tokens_per_target_forward": tokens / forwards,
        "ttft_wall_ms_p50": percentile(lat["ttft_wall"], 50),
        "tpot_wall_ms_p50": percentile(lat["tpot_wall"], 50),
        "e2e_wall_ms_p50": percentile(lat["e2e_wall"], 50),
        "e2e_wall_ms_p95": percentile(lat["e2e_wall"], 95),
        "ttft_sim_ms_p95": percentile(lat["ttft_sim"], 95),
        "e2e_sim_ms_p95": percentile(lat["e2e_sim"], 95),
        "slo_attainment": p.slo_attained / len(p.requests),
    }


def ar_priced_sim_ms(p: PassResult, cost: CostModel) -> float:
    """What the same outputs cost decoded autoregressively, solo-priced."""
    return sum(
        cost.target_prefill() + (r.record.n_tokens - 1) * cost.target_step()
        for r in p.results if r.record is not None and r.record.n_tokens > 0
    )


def failures(p: PassResult, expected: Optional[Sequence[Sequence[int]]],
             vocab_size: int, eos_id: int) -> List[str]:
    """Why requests of this pass count as failed (one line each, empty = none).

    A request fails when it did not complete, when a greedy output differs
    from the autoregressive reference (``expected``), or when a sampled
    output leaves the vocabulary or stops before eos or its token cap.
    (Sampled outputs have no token oracle, so the budget overrun described
    in :func:`~.workloads.build_requests` is not counted here.)
    """
    problems = []
    for i, (request, result) in enumerate(zip(p.requests, p.results)):
        rid = request.request_id
        if not result.ok or result.record is None:
            problems.append(f"{rid}: status {result.status} ({result.error})")
            continue
        tokens = list(result.record.token_ids)
        if expected is not None:
            if tokens != list(expected[i]):
                problems.append(f"{rid}: greedy output differs from the AR reference")
            continue
        cap = request.max_new_tokens or MAX_NEW_TOKENS
        if not tokens or any(not 0 <= t < vocab_size for t in tokens):
            problems.append(f"{rid}: sampled tokens outside the vocabulary")
        elif tokens[-1] != eos_id and len(tokens) < cap:
            problems.append(f"{rid}: sampled output of {len(tokens)} tokens is incomplete")
    return problems
