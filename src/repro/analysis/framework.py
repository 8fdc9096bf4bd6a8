"""Rule base class, registry, and the analysis engine.

A rule is a small class with a unique ``rule_id`` and one or both hooks:

* :meth:`Rule.check_module` — called once per parsed module (AST-local
  checks: views, except-discipline, determinism's zero-hop case,
  layering's thread-import clause);
* :meth:`Rule.check_project` — called once with the whole
  :class:`~repro.analysis.project.Project` (graph checks: layering,
  hotpath, determinism's n-hop case).

Registering is one decorator::

    @register
    class MyRule(Rule):
        rule_id = "my-rule"
        description = "what it enforces"

        def check_module(self, module, project):
            yield self.finding(module, node.lineno, "message")

:func:`run_analysis` loads the project, runs every (or a selected subset
of) registered rule, attaches source snippets, and returns findings in a
stable order.  Parse failures surface as findings under the built-in
``parse-error`` rule so a broken file can never silently skip analysis.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from .findings import SEVERITY_ERROR, Finding
from .project import ModuleInfo, Project, load_project

__all__ = ["Rule", "register", "rule_ids", "get_rule", "default_rules",
           "run_rules", "run_analysis", "PARSE_ERROR_RULE_ID"]

#: Rule id used for files that fail to parse.
PARSE_ERROR_RULE_ID = "parse-error"

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for analysis rules; subclass and :func:`register`."""

    rule_id: str = ""
    description: str = ""
    severity: str = SEVERITY_ERROR
    fix_hint: str = ""

    def finding(self, module: ModuleInfo, line: int, message: str,
                fix_hint: Optional[str] = None) -> Finding:
        """Build a finding anchored in ``module`` with this rule's identity."""
        return Finding(
            file=module.file,
            line=line,
            rule_id=self.rule_id,
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            severity=self.severity,
            snippet=module.snippet(line),
        )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        """Per-module hook; yield findings (default: none)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Whole-project hook; yield findings (default: none)."""
        return ()


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Fresh instance of the registered rule with ``rule_id``."""
    _load_builtin_rules()
    return _REGISTRY[rule_id]()


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    _load_builtin_rules()
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def _load_builtin_rules() -> None:
    # Imported lazily so `framework` has no import-time dependency on the
    # rule modules (which import framework back for @register).
    from . import rules  # noqa: F401  (import registers the rules)


def run_rules(project: Project, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run ``rules`` (default: all registered) over a loaded project."""
    if rules is None:
        rules = default_rules()
    findings: List[Finding] = []
    for file, line, message in project.parse_errors:
        findings.append(Finding(
            file=file, line=line, rule_id=PARSE_ERROR_RULE_ID,
            message=f"file does not parse: {message}",
            fix_hint="fix the syntax error; unparseable files are never analyzed",
        ))
    for rule in rules:
        for module in project.modules.values():
            findings.extend(rule.check_module(module, project))
        findings.extend(rule.check_project(project))
    # Attach snippets for findings built without one (e.g. project-level
    # rules that only had the module name at hand).
    patched = []
    for f in findings:
        if not f.snippet:
            module = project.by_file(f.file)
            if module is not None:
                f = replace(f, snippet=module.snippet(f.line))
        patched.append(f)
    return sorted(patched, key=Finding.sort_key)


def run_analysis(paths: Sequence, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Load ``paths`` into a project and run the rules over it."""
    return run_rules(load_project(paths), rules)
