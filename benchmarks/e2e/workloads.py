"""The four workloads: what each sends, and how ``--seed`` shapes it.

Everything here is a pure function of the seed and the smoke zoo's
evaluation datasets; the program under test only ever sees the generated
:class:`~repro.serving.ServeRequest` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core import AASDEngineConfig
from repro.decoding import CostModel, SamplerConfig, get_profile
from repro.eval import build_aasd_engine
from repro.serving import ServeRequest

__all__ = [
    "Workload", "WORKLOADS", "BY_NAME", "TARGET", "DATASETS", "PER_DATASET",
    "MAX_NEW_TOKENS", "WARMUP_REQUESTS", "canonical_pool", "pool_order",
    "arrival_times_ms", "build_requests", "build_engine", "expected_tokens",
]

TARGET = "sim-7b"
DATASETS = ("coco-sim", "llava-bench-sim", "scienceqa-sim")
PER_DATASET = 96
MAX_NEW_TOKENS = 48
WARMUP_REQUESTS = 16


@dataclass(frozen=True)
class Workload:
    """One traffic shape; ``why`` is the reason it is in the benchmark."""

    name: str
    why: str
    max_batch_size: int
    gamma: int = 3
    clients: int = 0                  #: closed loop: requests kept in flight
    rate_per_sim_s: float = 0.0       #: open loop: arrivals per simulated second
    #: Seeded input variants (send order + arrival schedule) a run cycles
    #: through, pass by pass.  Closed loops replay one, so their passes must
    #: agree bit for bit; the open loop's queueing tails depend on where the
    #: bursts fall, so it reports the median over four schedules per seed.
    replicas: int = 1
    tree: bool = False                #: tree speculation (branch 2, 8 nodes)
    sampled: bool = False             #: temperature 0.8 / top-p 0.95 sampling
    short_every: int = 0              #: every n-th request is capped ...
    short_max_new_tokens: int = 4     #: ... at this many new tokens
    # SLO limits on the simulated clock, frozen once at the seed state: a
    # request attains the SLO when its TTFT and its TPOT are both within them.
    slo_ttft_sim_ms: float = 0.0
    slo_tpot_sim_ms: float = 0.0

    @property
    def open_loop(self) -> bool:
        """True when requests arrive on a schedule instead of from clients."""
        return self.rate_per_sim_s > 0


WORKLOADS: Sequence[Workload] = (
    Workload(
        name="solo_chain",
        why="The paper's setting, batch 1 per-request latency: all work is the solo "
            "engine.step path where numpy dispatch, not GEMM, dominates; packed kernels "
            "are bypassed.",
        max_batch_size=1, clients=1,
        slo_ttft_sim_ms=150.0, slo_tpot_sim_ms=11.0,
    ),
    Workload(
        name="packed_batch16",
        why="Offline throughput, 16 closed-loop clients: every round is begin_batch/step_batch "
            "over cu-seqlen-packed fused GEMMs; the solo path does none of the work.",
        max_batch_size=16, clients=16,
        slo_ttft_sim_ms=950.0, slo_tpot_sim_ms=100.0,
    ),
    Workload(
        name="tree_arrivals",
        why="Open loop at 5 req per simulated second, tree speculation, every third request "
            "4 tokens: the only queue, varying occupancy and prefill-heavy joins.",
        max_batch_size=8, gamma=7, rate_per_sim_s=5.0, replicas=4, tree=True, short_every=3,
        slo_ttft_sim_ms=550.0, slo_tpot_sim_ms=60.0,
    ),
    Workload(
        name="sampled_batch8",
        why="8 closed-loop clients with temperature sampling: packing is disabled, rounds take the "
            "per-session path and speculative_verify does real rejection sampling.",
        max_batch_size=8, clients=8, sampled=True,
        slo_ttft_sim_ms=360.0, slo_tpot_sim_ms=80.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def canonical_pool(zoo) -> list:
    """The 288 evaluation samples in dataset order (seed-independent)."""
    pool: list = []
    for name in DATASETS:
        pool.extend(zoo.eval_dataset(name, PER_DATASET).samples)
    return pool


def pool_order(seed: int, replica: int = 0,
               n: int = PER_DATASET * len(DATASETS)) -> List[int]:
    """Indices into the canonical pool in the order ``seed`` sends them."""
    return [int(i) for i in np.random.default_rng([seed, 1, replica]).permutation(n)]


def arrival_times_ms(n: int, rate_per_sim_s: float, seed: int,
                     replica: int = 0) -> List[float]:
    """Due times (simulated ms) of ``n`` open-loop arrivals.

    The gaps are the ``n`` mid-quantiles of the exponential distribution
    with mean ``1000 / rate`` in a seeded order: every seed offers exactly
    the same load over the same horizon and differs only in where the
    bursts fall, so a queueing tail moves with the code, not with how
    many arrivals a seed happened to draw.
    """
    quantiles = (np.arange(n, dtype=np.float64) + 0.5) / n
    gaps = -np.log1p(-quantiles) * (1000.0 / rate_per_sim_s)
    np.random.default_rng([seed, 2, replica]).shuffle(gaps)
    return [float(t) for t in np.cumsum(gaps)]


def build_requests(workload: Workload, pool: Sequence[object],
                   reference: Sequence[Sequence[int]]) -> List[ServeRequest]:
    """This workload's request for every sample of the canonical pool.

    Which requests are short is a property of the request (every
    ``short_every``-th of the canonical pool), not of the send order, so
    every seed serves the same work and differs only in its order and
    arrival times.

    ``reference[i]`` is the autoregressive decode of ``pool[i]``.  It is
    needed here because of a defect in the program at the commit that
    defined the benchmark: a block that crosses ``max_new_tokens`` and
    also contains eos is cut at eos, not at the cap, so the output runs
    past its budget.  A workload may hold no failing operation, so a
    request whose reference ends within one block (``gamma + 1`` tokens)
    past the short cap keeps the default budget instead.
    """
    cap = workload.short_max_new_tokens
    requests = []
    for i, sample in enumerate(pool):
        short = (
            workload.short_every
            and i % workload.short_every == workload.short_every - 1
            and len(reference[i]) > cap + workload.gamma
        )
        requests.append(ServeRequest(
            request_id=f"{workload.name}-{i:03d}",
            sample=sample,
            max_new_tokens=cap if short else None,
        ))
    return requests


def expected_tokens(request: ServeRequest, reference: Sequence[int]) -> List[int]:
    """Greedy oracle for ``request``: the AR decode, cut at its token cap."""
    cap = request.max_new_tokens or MAX_NEW_TOKENS
    return list(reference[:cap])


def build_engine(zoo, workload: Workload, seed: int):
    """A fresh engine for one pass, on the smoke ``sim-7b`` target + AASD head."""
    config = AASDEngineConfig(
        gamma=workload.gamma,
        max_new_tokens=MAX_NEW_TOKENS,
        tree_speculation=workload.tree,
        tree_max_branch=2,
        tree_max_nodes=8,
    )
    sampler = (
        SamplerConfig(greedy=False, temperature=0.8, top_p=0.95, seed=seed)
        if workload.sampled else None   # None = the engine's greedy default
    )
    return build_aasd_engine(
        zoo, TARGET, workload.gamma, CostModel(get_profile(TARGET)),
        sampler_config=sampler, seed=seed, config=config,
    )
