"""Locks rule, order check: cross-class inversion cycles and self-deadlocks."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.locks import LockRule


def test_bad_fixture_flags_inversion_and_reacquisition(load_fixture):
    project = load_fixture("lockorder")
    findings = [f for f in run_rules(project, [LockRule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    inversions = [m for m in messages if "lock-order inversion" in m]
    assert inversions, messages
    assert any("Metrics" in m and "Queue" in m for m in inversions)
    reacquired = [m for m in messages if "re-entran" in m or "self-deadlock" in m]
    assert reacquired, messages
    assert any("Registry" in m for m in reacquired)


def test_ok_fixture_is_clean(load_fixture):
    """One global nesting order and unlocked helpers produce no findings."""
    project = load_fixture("lockorder")
    findings = [f for f in run_rules(project, [LockRule()])
                if f.file.endswith("ok.py")]
    assert findings == []
