"""Inputs are pure functions of ``--seed``; due times map onto the host clock."""

import numpy as np

from benchmarks.e2e.drive import _wall_at
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS, arrival_times_ms, pool_order


def test_pool_order_is_a_seeded_permutation():
    assert pool_order(7) == pool_order(7)
    assert pool_order(7) != pool_order(8)
    assert pool_order(7, replica=1) != pool_order(7)
    assert sorted(pool_order(7)) == list(range(288))


def test_arrival_schedule_is_a_pure_function_of_the_seed():
    rate = BY_NAME["tree_arrivals"].rate_per_sim_s
    a, b, c = (arrival_times_ms(288, rate, seed) for seed in (3, 3, 4))
    assert a == b and a != c and a != arrival_times_ms(288, rate, 3, replica=1)
    assert all(later > earlier for earlier, later in zip(a, a[1:]))
    # every seed offers the same gaps in another order: same horizon, same load
    assert np.allclose(np.sort(np.diff([0.0] + a)), np.sort(np.diff([0.0] + c)))
    assert abs(a[-1] - c[-1]) < 1e-6
    assert abs(a[-1] / 288 - 1000.0 / rate) / (1000.0 / rate) < 0.02


def test_workload_table_matches_the_issue():
    assert [w.name for w in WORKLOADS] == [
        "solo_chain", "packed_batch16", "tree_arrivals", "sampled_batch8"]
    assert [w.open_loop for w in WORKLOADS] == [False, False, True, False]
    assert [w.clients for w in WORKLOADS] == [1, 16, 0, 8]
    assert [w.replicas for w in WORKLOADS] == [1, 1, 4, 1]
    assert all(w.slo_ttft_sim_ms > 0 and w.slo_tpot_sim_ms > 0 for w in WORKLOADS)


def test_due_time_maps_linearly_inside_a_round():
    s0, w0 = [0.0, 100.0], [10.0, 11.0]
    s1, w1 = [100.0, 300.0], [10.5, 12.0]
    assert _wall_at(150.0, 99.0, s0, w0, s1, w1) == 11.25      # a quarter into round 2
    assert _wall_at(100.0, 10.9, s0, w0, s1, w1) == 10.5       # exactly at a boundary
    assert _wall_at(0.0, 9.9, s0, w0, s1, w1) == 9.9           # due before the first round
    assert _wall_at(400.0, 12.3, s0, w0, s1, w1) == 12.3       # due in an idle gap afterwards
