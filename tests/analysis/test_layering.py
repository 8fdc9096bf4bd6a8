"""Layering rule: upward imports and cycles rejected, legal trees clean."""

from __future__ import annotations

import pytest

from repro.analysis.framework import run_rules
from repro.analysis.rules.layering import DEFAULT_LAYERS, LayeringRule

#: The fixture contract: utils at the bottom, serving at the top.
FIXTURE_LAYERS = (
    ("foundation", {"utils"}),
    ("application", {"serving", ""}),
)


def _rule() -> LayeringRule:
    return LayeringRule(layers=FIXTURE_LAYERS, root_package="proj")


def test_upward_import_rejected(load_fixture):
    """A synthetic ``utils -> serving`` import is an upward-import error."""
    project = load_fixture("layering/upward")
    findings = run_rules(project, [_rule()])
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "layering"
    assert "upward import" in f.message
    assert "proj.utils.helpers" in f.message and "proj.serving" in f.message
    assert f.file.endswith("utils/helpers.py")
    assert f.snippet == "from proj.serving import api"


def test_downward_and_lazy_imports_pass(load_fixture):
    """serving -> utils is legal; a function-level upward import is not an edge."""
    project = load_fixture("layering/ok")
    assert run_rules(project, [_rule()]) == []
    # The lazy import really was excluded from the graph, not just unflagged.
    assert all(e.src != "proj.utils.lazy" for e in project.imports)


def test_import_cycle_rejected(load_fixture):
    """A two-module load-time cycle yields exactly one cycle finding."""
    project = load_fixture("layering/cycle")
    findings = run_rules(project, [_rule()])
    assert len(findings) == 1
    f = findings[0]
    assert "import cycle" in f.message
    assert "ring.alpha" in f.message and "ring.beta" in f.message


@pytest.mark.parametrize("tree, file, line, imported", [
    ("layering/thread_import", "serving/pool.py", 3, "threading"),
    ("layering/pool_import", "utils/workers.py", 5, "concurrent.futures"),
])
def test_thread_import_rejected(load_fixture, tree, file, line, imported):
    """One thread drives the pipeline: importing a thread module is a finding.

    The pool fixture imports lazily, inside a function: the clause reads
    every import, not only the load-time graph.
    """
    findings = run_rules(load_fixture(tree), [_rule()])
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "layering"
    assert f.file.endswith(file) and f.line == line
    assert "thread import: proj." in f.message and f"imports {imported};" in f.message


def test_default_contract_matches_architecture_doc():
    """The shipped contract encodes docs/architecture.md's layering claims."""
    rule = LayeringRule()
    depth = {key: i for i, (_label, keys) in enumerate(DEFAULT_LAYERS) for key in keys}
    # "nn knows nothing above it" / "obs is leaf-free": both at the bottom.
    assert depth["nn"] == 0 and depth["obs"] == 0
    # "core depends on models/nn but not on serving".
    assert depth["models"] < depth["core"] < depth["serving"]
    # Every finding the rule could emit resolves through _layer_of.
    assert rule._layer_of("repro.core.engine") == (2, "method")
    assert rule._layer_of("repro.serving.scheduler") == (3, "application")
    assert rule._layer_of("repro") == (3, "application")
    assert rule._layer_of("some.other.package") is None
