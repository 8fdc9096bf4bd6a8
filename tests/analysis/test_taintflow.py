"""Determinism rule, n hops: nondeterministic sources reaching decode sinks."""

from __future__ import annotations

from repro.analysis.framework import run_rules
from repro.analysis.rules.determinism import DeterminismRule


def _rule():
    # Fixture modules are named taintflow.bad / taintflow.ok, so the sink
    # scope must cover them (the default scopes to repro.decoding/core).
    return DeterminismRule(sink_prefixes=("taintflow.",), clock_exempt=())


def test_bad_fixture_flags_sources_reaching_sinks(load_fixture):
    project = load_fixture("taintflow")
    findings = [f for f in run_rules(project, [_rule()])
                if f.file.endswith("bad.py")]
    messages = [f.message for f in findings]
    # Unseeded rng flows interprocedurally into decode()'s rng parameter.
    assert any("unseeded-rng" in m and "rng" in m and "decode" in m
               for m in messages), messages
    # The `rng if rng is not None else default_rng()` fallback on self.rng.
    assert any("unseeded-rng" in m and "Sampler.__init__" in m
               for m in messages), messages
    # Wall clock laundered into a seed slot.
    assert any("wall-clock" in m and "seed" in m for m in messages), messages


def test_ok_fixture_is_clean(load_fixture):
    """Seeded rngs and clock-as-data (not clock-as-seed) are fine."""
    project = load_fixture("taintflow")
    findings = [f for f in run_rules(project, [_rule()])
                if f.file.endswith("ok.py")]
    assert findings == []
