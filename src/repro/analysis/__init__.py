"""``repro.analysis`` — AST-based invariant linter for this codebase.

The repo's architectural invariants (layering direction, one thread,
seeded-RNG determinism, zero-copy hot paths, view read-only-ness,
exception discipline) exist only as convention without enforcement;
this package makes them an executable CI gate.  It is pure stdlib
(``ast`` + ``json``) so it runs on any tree without importing the code
under analysis.

Pieces:

* :mod:`~repro.analysis.framework` — :class:`Rule` base class, registry,
  :func:`run_analysis` engine;
* :mod:`~repro.analysis.project` — parsed modules + resolved import graph;
* :mod:`~repro.analysis.callgraph` / :mod:`~repro.analysis.dataflow` —
  the whole-program engines the rules' n-hop checks run on;
* :mod:`~repro.analysis.rules` — the five repo-specific rules, one per
  invariant;
* :mod:`~repro.analysis.suppressions` — justified inline
  ``# repro: allow[rule] -- reason`` comments, the only suppression;
* :mod:`~repro.analysis.reporters` — text, JSON and SARIF output;
* :mod:`~repro.analysis.docs_check` / :mod:`~repro.analysis.docstrings` —
  the folded docs gates (``docs`` / ``docstrings`` subcommands);
* :mod:`~repro.analysis.cli` — ``python -m repro.analysis``.

See ``docs/static_analysis.md`` for the rule catalogue and workflow.
"""

from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .framework import (Rule, default_rules, get_rule, register, rule_ids,
                        run_analysis, run_rules)
from .project import ImportEdge, ModuleInfo, Project, load_project

__all__ = [
    "Finding",
    "ImportEdge",
    "ModuleInfo",
    "Project",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "default_rules",
    "get_rule",
    "load_project",
    "register",
    "rule_ids",
    "run_analysis",
    "run_rules",
]
