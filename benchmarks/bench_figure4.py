"""Regenerates **Figure 4**: is vision information really important?

Leaves the image KV or the text KV block out of what the draft head attends at
inference and measures block efficiency.  The paper's finding: text KV is
essential (tau collapses without it) while image KV is a useful bonus.
"""

from __future__ import annotations

import pytest

from repro.eval import build_aasd_engine, grouped_bar_chart, save_svg, render_figure4, save_results
from .conftest import RESULTS_DIR, bench_targets

TARGETS = bench_targets()
GAMMA = 3
VARIANTS = (
    ("full kv", False, False),
    ("no image kv", True, False),
    ("no text kv", False, True),
)
_RESULTS = {}

CASES = [(t, GAMMA, label, ni, nt) for t in TARGETS for label, ni, nt in VARIANTS]


@pytest.mark.parametrize(
    "target,gamma,label,no_img,no_txt", CASES,
    ids=[f"{t}-{l.replace(' ', '-')}" for t, _, l, _, _ in CASES],
)
def test_figure4_bar(benchmark, runner, zoo, target, gamma, label, no_img, no_txt):
    engine = build_aasd_engine(
        zoo, target, gamma, runner.cost_model(target),
        max_new_tokens=runner.config.max_new_tokens,
        disable_image_kv=no_img,
        disable_text_kv=no_txt,
    )
    sample = runner.dataset("coco-sim")[0]
    benchmark.pedantic(lambda: engine.decode(sample), rounds=2, iterations=1)

    report = runner.evaluate(engine, target)
    _RESULTS[(target, gamma, label)] = report.row()
    benchmark.extra_info.update(report.row())


def test_figure4_summary(benchmark, runner):
    assert len(_RESULTS) == len(CASES)
    rendered = benchmark.pedantic(
        lambda: render_figure4(_RESULTS, targets=TARGETS, gammas=(GAMMA,)),
        rounds=1, iterations=1,
    )
    print("\n" + rendered)
    save_results(_RESULTS, RESULTS_DIR / "figure4", rendered=rendered)
    groups = sorted({(t, g) for t, g, _ in _RESULTS})
    series = {
        label: [_RESULTS.get((t, g, label), {}).get("tau", 0.0) for t, g in groups]
        for label in ('full kv', 'no image kv', 'no text kv')
    }
    save_svg(
        grouped_bar_chart(
            'Figure 4: vision vs text KV importance (block efficiency)',
            [f"{t} γ={g}" for t, g in groups],
            series,
            y_label="tau",
        ),
        RESULTS_DIR / "figure4.svg",
    )

    # Paper's finding: tau(full) >= tau(no image KV) >> tau(no text KV).
    for target in TARGETS:
        full = _RESULTS[(target, GAMMA, "full kv")]
        no_img = _RESULTS[(target, GAMMA, "no image kv")]
        no_txt = _RESULTS[(target, GAMMA, "no text kv")]
        assert full["tau"] >= no_img["tau"] * 0.999, target
        assert no_img["tau"] > no_txt["tau"], target
        assert full["tau"] - no_txt["tau"] > full["tau"] - no_img["tau"], target
