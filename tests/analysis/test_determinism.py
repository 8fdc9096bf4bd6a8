"""Determinism rule, zero hops: global RNG, stdlib random, wall-clock seeds."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.determinism import DeterminismRule


def test_bad_fixture_flags_all_violations(load_fixture):
    project = load_fixture("determinism")
    findings = [f for f in run_rules(project, [DeterminismRule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    assert len(findings) == 4
    assert any("stdlib random" in m for m in messages)
    assert any("np.random.seed" in m for m in messages)
    assert any("np.random.rand" in m for m in messages)
    assert any("wall-clock" in m and "time.time" in m for m in messages)


def test_ok_fixture_is_clean(load_fixture):
    """Seeded/seedless default_rng, SeedSequence, Generator all stay legal."""
    project = load_fixture("determinism")
    findings = [f for f in run_rules(project, [DeterminismRule()])
                if f.file.endswith("ok.py")]
    assert findings == []
