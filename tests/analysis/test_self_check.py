"""The linter's dogfood gate: the shipped tree is clean.

This is the test that keeps the rules honest in both directions: a rule
that over-fires breaks it immediately, and a regression in ``src/`` (an
upward import, a stray ``np.concatenate`` on the hot path, a silent broad
except) breaks it just as fast.  Justified inline allows are the only
suppression, and none of them may be stale or name an unknown rule.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.framework import rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_src_is_clean_modulo_baseline(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    start = time.perf_counter()
    assert main(["check", "src"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert "clean: 0 findings" in out
    assert "inline-allow" not in out
    assert "stale inline allow" not in out
    assert not (REPO_ROOT / "analysis_baseline.json").exists()
    # CI budget: the whole-program check must stay interactive-fast.
    assert elapsed < 30.0, f"analysis took {elapsed:.1f}s, budget is 30s"


def test_whole_program_packs_are_registered():
    assert set(rule_ids()) == {"layering", "except-discipline", "hotpath",
                               "views", "determinism"}
