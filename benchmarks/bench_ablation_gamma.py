"""Ablation: the speculation depth gamma, swept over fixed values.

Runs the AASD engine at fixed gamma in {1..8} (the paper fixes 3 or 5 per
run), reporting where the fixed-depth sweet spot lies and checking that
every depth still beats plain autoregressive decoding.
"""

from __future__ import annotations

import pytest

from repro.core import AASDEngine, AASDEngineConfig
from repro.eval import render_bars, save_results
from .conftest import RESULTS_DIR

FIXED_GAMMAS = (1, 2, 3, 5, 8)
_RESULTS = {}


def _engine(zoo, runner, gamma):
    return AASDEngine(
        zoo.target("sim-7b"),
        zoo.aasd_head("sim-7b"),
        zoo.tokenizer(),
        runner.cost_model("sim-7b"),
        AASDEngineConfig(gamma=gamma, max_new_tokens=runner.config.max_new_tokens),
    )


@pytest.mark.parametrize("gamma", FIXED_GAMMAS, ids=[f"fixed-g{g}" for g in FIXED_GAMMAS])
def test_fixed_gamma(benchmark, zoo, runner, gamma):
    engine = _engine(zoo, runner, gamma)
    sample = runner.dataset("coco-sim")[0]
    benchmark.pedantic(lambda: engine.decode(sample), rounds=2, iterations=1)
    report = runner.evaluate(engine, "sim-7b")
    _RESULTS[("sim-7b", gamma, f"fixed γ={gamma}")] = report.row()
    benchmark.extra_info.update(report.row())


def test_gamma_ablation_summary(benchmark, runner):
    assert len(_RESULTS) == len(FIXED_GAMMAS)
    series = {label: row["omega"] for (_, _, label), row in _RESULTS.items()}
    rendered = benchmark.pedantic(
        lambda: render_bars("Speculation depth ablation: walltime speedup", series, unit="x"),
        rounds=1, iterations=1,
    )
    print("\n" + rendered)
    save_results(_RESULTS, RESULTS_DIR / "ablation_gamma", rendered=rendered)
    # Every fixed depth must still beat autoregressive decoding (omega > 1).
    assert all(omega > 1.0 for omega in series.values()), series
