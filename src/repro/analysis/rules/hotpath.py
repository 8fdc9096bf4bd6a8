"""Hot-path allocation discipline: the zero-copy rule, enforced.

The KV-arena refactor (PR 4) removed every O(T) ``np.concatenate`` from
the decode hot path; ``benchmarks/bench_kv_arena.py`` asserts the >=5x win
that depends on it.  One innocent ``np.concatenate`` or ``.copy()`` in an
inner loop silently reverts the complexity class without failing any
correctness test — exactly the kind of regression a linter catches and a
reviewer doesn't.

The rule checks one *hot set* for the forbidden allocators
(``np.concatenate``/``stack``/``vstack``/``hstack``/``copy`` and
``.copy()``):

* **zero hops** — every line of the tagged modules: the engine block
  loop, both arena-backed caches, the arena itself, and everything under
  ``repro.decoding`` (the per-token inner loops);
* **n hops** — every function in the call-graph closure of the decode
  entry points (``ContinuousBatchingScheduler.run_round``,
  ``AASDEngine.step*``), wherever its module lives.  Moving the
  ``np.concatenate`` into a helper outside the tagged set does not hide
  it; the finding carries the call path that makes the site hot
  (``run_round -> _drain -> helper``).

Each site is reported once: a site in a tagged module gets the zero-hop
finding even when it is also reachable.  ``repro.core.reference`` is
exempt by design: it preserves the concatenate-based implementations as
the executable spec the property tests compare against.  An entry pattern
that matches no function while its module is loaded is itself a finding —
a renamed entry must not switch the closure off silently.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..astutil import dotted_name, short_name
from ..callgraph import call_graph_for
from ..framework import Rule, register
from ..project import Project

__all__ = ["HotPathRule"]

#: Modules under the zero-copy contract.
DEFAULT_HOT_MODULES: Set[str] = {
    "repro.core.engine",
    "repro.core.hybrid_cache",
    "repro.models.kv_cache",
    "repro.utils.arena",
}
#: Dotted prefixes fully under the contract.
DEFAULT_HOT_PREFIXES: Sequence[str] = ("repro.decoding.",)
#: The executable spec keeps its concatenates on purpose.
DEFAULT_EXEMPT: Set[str] = {"repro.core.reference"}
#: fnmatch-style entry patterns: the decode/serving hot loops.
DEFAULT_ENTRY_PATTERNS: Tuple[str, ...] = (
    "repro.serving.scheduler.ContinuousBatchingScheduler.run_round",
    "repro.core.engine.AASDEngine.step*",
)

#: numpy allocators forbidden on the hot path.
FORBIDDEN_NP = {"concatenate", "stack", "vstack", "hstack", "copy"}


def alloc_sites(node: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, "np.stack()")`` for each forbidden allocator call under ``node``."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        name = dotted_name(call.func)
        if name is not None:
            parts = name.split(".")
            if (len(parts) >= 2 and parts[-2] in ("np", "numpy")
                    and parts[-1] in FORBIDDEN_NP):
                yield call.lineno, f"{name}()"
                continue
        if isinstance(call.func, ast.Attribute) and call.func.attr == "copy":
            yield call.lineno, ".copy()"


@register
class HotPathRule(Rule):
    """Forbid tensor allocation in hot modules and everything decode reaches."""

    rule_id = "hotpath"
    description = (
        "no np.concatenate/np.stack/.copy() in the zero-copy modules or "
        "anywhere transitively reachable from the serving/decode entry points"
    )
    fix_hint = (
        "write into preallocated arena storage (append/truncate/view, see "
        "docs/performance.md) or hoist the allocation out of the per-step "
        "path; a setup-only site takes an inline "
        "`# repro: allow[hotpath] -- <reason>`"
    )

    def __init__(self, hot_modules: Optional[Set[str]] = None,
                 hot_prefixes: Optional[Sequence[str]] = None,
                 exempt: Optional[Set[str]] = None,
                 entry_patterns: Sequence[str] = DEFAULT_ENTRY_PATTERNS) -> None:
        self.hot_modules = hot_modules if hot_modules is not None else DEFAULT_HOT_MODULES
        self.hot_prefixes = tuple(hot_prefixes if hot_prefixes is not None
                                  else DEFAULT_HOT_PREFIXES)
        self.exempt = exempt if exempt is not None else DEFAULT_EXEMPT
        self.entry_patterns = tuple(entry_patterns)

    def applies(self, module: str) -> bool:
        """True when ``module`` is tagged under the zero-copy contract."""
        if module in self.exempt:
            return False
        return module in self.hot_modules or module.startswith(self.hot_prefixes)

    def check_project(self, project: Project) -> Iterator:
        """Flag allocation sites in tagged modules and the entries' closure."""
        graph = call_graph_for(project)
        entries = set()
        for pattern in self.entry_patterns:
            hits = graph.find(pattern)
            entries.update(hits)
            owner = _owning_module(project, pattern)
            if not hits and owner is not None:
                yield self.finding(
                    project.modules[owner], 1,
                    f"decode entry pattern {pattern!r} matches no function, "
                    f"so nothing reachable from it is checked",
                    fix_hint="point the entry pattern at the renamed decode "
                             "entry, or delete it",
                )
        for name, module in sorted(project.modules.items()):
            if self.applies(name):
                for line, what in alloc_sites(module.tree):
                    lead = "" if what == ".copy()" else "hot-path allocation: "
                    yield self.finding(
                        module, line, f"{lead}{what} in zero-copy module {name}")
        reachable = graph.reachable(sorted(entries))
        for qname, path in sorted(reachable.items()):
            func = graph.functions[qname]
            if func.module in self.exempt or self.applies(func.module):
                continue
            via = " -> ".join(short_name(p) for p in path)
            for line, what in alloc_sites(func.node):
                yield self.finding(
                    project.modules[func.module], line,
                    f"hot-path allocation: {what} in {short_name(qname)}, "
                    f"reachable from a decode entry via {via}",
                )


def _owning_module(project: Project, pattern: str) -> Optional[str]:
    """Longest loaded module that is a dotted prefix of ``pattern``."""
    parts = pattern.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        name = ".".join(parts[:cut])
        if name in project.modules:
            return name
    return None
