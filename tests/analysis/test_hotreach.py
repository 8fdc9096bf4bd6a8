"""Hot-path rule, n hops: allocations hiding behind resolved calls."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.hotpath import HotPathRule


ENTRIES = ("hotreach.bad.Engine.step", "hotreach.ok.Engine.step")


def _rule(entry_patterns=ENTRIES, hot_modules=()):
    # Entry points live in the fixture modules; the default tagged set is
    # replaced since the fixtures are outside repro.*.
    return HotPathRule(hot_modules=set(hot_modules), hot_prefixes=(),
                       exempt=set(), entry_patterns=entry_patterns)


def test_bad_fixture_flags_allocation_behind_helper(load_fixture):
    project = load_fixture("hotreach")
    findings = [f for f in run_rules(project, [_rule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    assert any("np.concatenate" in m and "assemble" in m
               for m in messages), messages
    # The finding carries the witness path from the entry point.
    assert any("Engine.step" in m for m in messages), messages


def test_ok_fixture_is_clean(load_fixture):
    """Preallocated-buffer writes and unreachable allocators are fine."""
    project = load_fixture("hotreach")
    findings = [f for f in run_rules(project, [_rule()])
                if f.file.endswith("ok.py")]
    assert findings == []


def test_tagged_and_reachable_site_is_reported_once(load_fixture):
    """A site that is both zero hops and n hops away gets one finding."""
    project = load_fixture("hotreach")
    rule = _rule(hot_modules={"hotreach.tagged"},
                 entry_patterns=("hotreach.tagged.Engine.step",))
    findings = [f for f in run_rules(project, [rule])
                if f.file.endswith("tagged.py")]
    assert [(f.line, f.message) for f in findings] == [
        (9, "hot-path allocation: np.stack() in zero-copy module hotreach.tagged"),
    ]


def test_entry_pattern_matching_nothing_is_a_finding(load_fixture):
    """A renamed entry must not switch the closure check off silently."""
    project = load_fixture("hotreach")
    rule = _rule(entry_patterns=("hotreach.bad.Engine.step",
                                 "hotreach.bad.Engine.bogus*"))
    findings = [f for f in run_rules(project, [rule])
                if "matches no function" in f.message]
    assert [(f.file.rsplit("/", 1)[-1], f.line) for f in findings] == [("bad.py", 1)]
    assert "hotreach.bad.Engine.bogus*" in findings[0].message


def test_entry_pattern_outside_the_tree_is_not_a_finding(load_fixture):
    """Patterns naming modules that were not loaded stay quiet."""
    project = load_fixture("hotreach")
    findings = run_rules(project, [_rule(entry_patterns=("elsewhere.Engine.step",))])
    assert findings == []
