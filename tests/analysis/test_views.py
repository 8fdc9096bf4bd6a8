"""Views rule, write-through: in-place writes into arena view API results."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.views import ViewRule


def test_bad_fixture_flags_every_write(load_fixture):
    project = load_fixture("views")
    findings = [f for f in run_rules(project, [ViewRule()])
                if f.file.endswith("bad.py")]
    assert len(findings) == 4
    messages = " | ".join(f.message for f in findings)
    assert "in-place write into zero-copy view 'v'" in messages
    assert "augmented assignment" in messages
    assert "directly into an arena view API result" in messages
    assert "'p'" in messages  # the positions property alias


def test_ok_fixture_is_clean(load_fixture):
    """Reads, explicit .copy(), and rebinding clear the taint."""
    project = load_fixture("views")
    findings = [f for f in run_rules(project, [ViewRule()])
                if f.file.endswith("ok.py")]
    assert findings == []
