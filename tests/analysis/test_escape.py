"""Views rule, lifetime: zero-copy views outliving the arena state they alias."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.views import ViewRule


def test_bad_fixture_flags_all_escape_shapes(load_fixture):
    project = load_fixture("escape")
    findings = [f for f in run_rules(project, [ViewRule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    assert any("stale view read" in m for m in messages), messages
    assert any("stale view returned" in m for m in messages), messages
    assert any("cache.keep_rows()" in m for m in messages), messages
    assert any("stored on self.last" in m for m in messages), messages
    assert any("closure" in m for m in messages), messages


def test_ok_fixture_is_clean(load_fixture):
    """Consume-before-mutate, .copy() detach, and fresh returns all pass."""
    project = load_fixture("escape")
    findings = [f for f in run_rules(project, [ViewRule()])
                if f.file.endswith("ok.py")]
    assert findings == []
