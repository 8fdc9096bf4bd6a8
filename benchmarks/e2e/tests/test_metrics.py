"""Percentile picker, median, and the BENCHMARK.json contract."""

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e.metrics import (END_TO_END, MIN_BEYOND, PER_LAYER, manifest, median,
                                    percentile)

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_is_nearest_rank():
    values = list(range(1, 289))          # the pool size
    assert percentile(values, 50) == 144
    assert percentile(values, 95) == 274  # 14 samples beyond it
    assert percentile(list(reversed(values)), 95) == 274


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(200)), 95) == 189      # exactly MIN_BEYOND beyond
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(199)), 95)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(288)), 99)
    assert MIN_BEYOND == 10


def test_median_and_low_percentiles_need_no_tail():
    assert percentile([3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([5.0, 1.0, 3.0]) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        median([])


def test_benchmark_json_is_the_manifest():
    checked_in = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert checked_in == manifest()


def test_manifest_meets_the_contract():
    m = manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"]] + [x["name"] for x in m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for x in m["end_to_end"]:
        assert set(x) == {"name", "unit", "better", "bound"}
        assert 0 < x["bound"] <= 0.25
    for x in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(x["unit"]) and x["better"] in ("higher", "lower")
    for x in m["per_layer"]:
        assert set(x) == {"name", "unit", "better"}
    setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(x["bound"] for x in m["end_to_end"])
    assert len(json.dumps(m)) < 64 * 1024


def test_every_per_layer_metric_names_what_it_moves():
    assert all(m.layer and m.moves for m in PER_LAYER)
    assert all(m.bound is not None for m in END_TO_END)
