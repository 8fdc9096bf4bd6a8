"""Fold equivalence: each merged rule reports what its retired pair reported.

``hotpath``, ``views`` and ``determinism`` each replace a
lexical rule and a whole-program rule.  ``PAIR_FINDINGS`` records the
union of the two old rules' ``(file, line, message)`` findings on every
fixture tree of the pair, with the scopes the fixture tests pass.  The
merged rule must reproduce that set exactly; only the rule id changes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import load_project
from repro.analysis.framework import run_rules
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.hotpath import HotPathRule
from repro.analysis.rules.views import ViewRule

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: tree -> merged rule, scoped as that tree's fixture tests scope it
RULES = {
    "hotpath": lambda: HotPathRule(hot_modules={"hot.engine"}, hot_prefixes=(),
                                   exempt={"hot.reference"}),
    "hotreach": lambda: HotPathRule(
        hot_modules=set(), hot_prefixes=(), exempt=set(),
        entry_patterns=("hotreach.bad.Engine.step", "hotreach.ok.Engine.step")),
    "views": ViewRule,
    "escape": ViewRule,
    "determinism": DeterminismRule,
    "taintflow": lambda: DeterminismRule(sink_prefixes=("taintflow.",),
                                         clock_exempt=()),
}

#: tree -> union of the retired pair's findings on it
PAIR_FINDINGS = {
    # hotpath-alloc | hotpath-reach
    "hotpath": {
        ("hotpath/hot/engine.py", 7,
         "hot-path allocation: np.concatenate() in zero-copy module hot.engine"),
        ("hotpath/hot/engine.py", 8,
         "hot-path allocation: np.stack() in zero-copy module hot.engine"),
        ("hotpath/hot/engine.py", 9,
         ".copy() in zero-copy module hot.engine"),
    },
    "hotreach": {
        ("hotreach/bad.py", 10,
         "hot-path allocation: np.concatenate() in bad.assemble, reachable "
         "from a decode entry via Engine.step -> bad.assemble"),
    },
    # view-mutation | view-escape
    "views": {
        ("views/bad.py", 6, "in-place write into zero-copy view 'v'"),
        ("views/bad.py", 7,
         "augmented assignment mutates zero-copy view 'v' in place"),
        ("views/bad.py", 8,
         "in-place write directly into an arena view API result"),
        ("views/bad.py", 10, "in-place write into zero-copy view 'p'"),
    },
    "escape": {
        ("escape/bad.py", 9,
         "stale view read: 'rows' (view of table from line 7) is used after "
         "table.append() on line 8 invalidated it"),
        ("escape/bad.py", 16,
         "stale view returned: 'pos' (view of table from line 14) is used "
         "after table.rollback() on line 15 invalidated it"),
        ("escape/bad.py", 26,
         "zero-copy view stored on self.last: it outlives this call frame, "
         "and any later mutation of self._cache silently invalidates it"),
        ("escape/bad.py", 32,
         "closure '<lambda>' captures zero-copy view 'view'; it may run "
         "after the cache mutates, reading through a dangling alias"),
        ("escape/bad.py", 38,
         "stale view returned: 'pos' (view of cache from line 36) is used "
         "after cache.keep_rows() on line 37 invalidated it"),
    },
    # determinism | determinism-flow
    "determinism": {
        ("determinism/bad.py", 3,
         "stdlib random imported; use numpy Generators from repro.utils.rng "
         "instead"),
        ("determinism/bad.py", 8,
         "call on numpy's global RNG state: np.random.seed() mutates shared "
         "state and breaks seeded reproducibility"),
        ("determinism/bad.py", 9,
         "call on numpy's global RNG state: np.random.rand() mutates shared "
         "state and breaks seeded reproducibility"),
        ("determinism/bad.py", 11,
         "wall-clock-derived seed: default_rng(...time.time()...) changes "
         "every run"),
    },
    "taintflow": {
        ("taintflow/bad.py", 22,
         "unseeded-rng value reaches parameter `rng` of bad.decode in bad.run "
         "(source: taintflow/bad.py:13: return np.random.default_rng()); "
         "decode output now varies between runs"),
        ("taintflow/bad.py", 29,
         "unseeded-rng value reaches `self.rng` in Sampler.__init__ (source: "
         "taintflow/bad.py:29: self.rng = rng if rng is not None else "
         "np.random.default_rng()); decode output now varies between runs"),
        ("taintflow/bad.py", 33,
         "wall-clock value reaches `seed` in bad.clocked_seed (source: "
         "taintflow/bad.py:33: seed = time.time()  # wall-clock value lands "
         "in a seed slot); decode output now varies between runs"),
    },
}


@pytest.mark.parametrize("tree", sorted(RULES))
def test_merged_rule_matches_the_pair(tree, monkeypatch):
    monkeypatch.chdir(FIXTURES)  # report fixture-relative paths
    rule = RULES[tree]()
    findings = run_rules(load_project([FIXTURES / tree]), [rule])
    assert {f.rule_id for f in findings} <= {rule.rule_id}
    assert {(f.file, f.line, f.message) for f in findings} == PAIR_FINDINGS[tree]
