"""Locks rule, lockset check: guarded classes write only under self._lock."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.locks import LockRule


def test_bad_fixture_flags_unguarded_writes(load_fixture):
    project = load_fixture("locks")
    findings = [f for f in run_rules(project, [LockRule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("self._counts" in m and "Registry.reset" in m for m in messages)
    assert any("self._dirty" in m and "Registry.bump" in m for m in messages)


def test_ok_fixture_is_clean(load_fixture):
    """Guarded writes pass; classes without a _lock are out of scope."""
    project = load_fixture("locks")
    findings = [f for f in run_rules(project, [LockRule()])
                if f.file.endswith("ok.py")]
    assert findings == []
