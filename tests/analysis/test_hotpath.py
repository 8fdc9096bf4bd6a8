"""Hot-path rule, zero hops: forbidden allocators, exemptions, scoping."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.hotpath import HotPathRule


def _rule() -> HotPathRule:
    return HotPathRule(
        hot_modules={"hot.engine"}, hot_prefixes=(), exempt={"hot.reference"}
    )


def test_hot_module_allocations_flagged(load_fixture):
    project = load_fixture("hotpath")
    findings = run_rules(project, [_rule()])
    assert all(f.file.endswith("engine.py") for f in findings)
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 3
    assert "np.concatenate" in messages
    assert "np.stack" in messages
    assert ".copy()" in messages


def test_exempt_and_cold_modules_untouched(load_fixture):
    """reference.py (executable spec) and cold.py (off-path) never flag."""
    project = load_fixture("hotpath")
    findings = run_rules(project, [_rule()])
    assert not any(f.file.endswith(("reference.py", "cold.py")) for f in findings)


def test_default_scope_matches_the_repo():
    """The shipped scope covers the real hot modules and exempts the spec."""
    rule = HotPathRule()
    assert "repro.core.engine" in rule.hot_modules
    assert "repro.utils.arena" in rule.hot_modules
    assert any("repro.decoding" in p for p in rule.hot_prefixes)
    assert "repro.core.reference" in rule.exempt
    assert any(p.endswith("ContinuousBatchingScheduler.run_round")
               for p in rule.entry_patterns)
    assert "repro.core.engine.AASDEngine.step*" in rule.entry_patterns
