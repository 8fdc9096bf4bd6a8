"""Layer contract: the architecture's import direction, enforced.

``docs/architecture.md`` declares the layering ("``nn`` knows nothing
above it; ``core`` depends on ``models``/``nn`` but not on ``serving``;
``obs`` is leaf-free").  This rule makes that paragraph executable: every
top-level subpackage of ``repro`` is assigned a layer, an import may only
point *sideways or down*, and the module-level import graph must be
acyclic (same-layer imports are legal exactly because cycles are rejected
at module granularity).

One clause guards the single-thread contract (``docs/serving.md``): one
thread drives the scheduler, queue, tracer and profiler, so they take no
locks, and no module inside the contract may import ``threading``,
``_thread`` or ``concurrent.futures`` — at load time or lazily.

The default contract, bottom to top:

* layer 0 — **foundation**: ``errors``, ``version``, ``obs``, ``nn``,
  ``tokenizer``, ``utils``, ``analysis``.  ``obs`` sits at the bottom on
  purpose: everything emits metrics/spans into it, it imports none of the
  emitters.
* layer 1 — **substrate**: ``data``, ``models``.
* layer 2 — **method**: ``decoding``, ``core``, ``robustness``,
  ``training`` (``core`` prices blocks through ``decoding.cost_model`` and
  degrades through ``robustness.guards``; they share a layer, cycle-checked
  per module).
* layer 3 — **application**: ``serving``, ``eval``, ``zoo``, and the
  package facade.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..findings import Finding
from ..framework import Rule, register
from ..project import ModuleInfo, Project

__all__ = ["LayeringRule", "DEFAULT_LAYERS"]

#: Bottom-to-top layer contract: (layer name, top-level subpackage keys).
#: The empty key is the ``repro`` package facade itself.
DEFAULT_LAYERS: Sequence[Tuple[str, Set[str]]] = (
    ("foundation", {"errors", "version", "obs", "nn", "tokenizer", "utils", "analysis"}),
    ("substrate", {"data", "models"}),
    ("method", {"decoding", "core", "robustness", "training"}),
    ("application", {"serving", "eval", "zoo", ""}),
)

#: Top-level package whose children the layer keys name.
ROOT_PACKAGE = "repro"

#: Modules that start or synchronise threads; nothing in the contract imports them.
THREAD_MODULES = ("threading", "_thread", "concurrent.futures")


def _imported_modules(node: ast.AST) -> List[str]:
    """Dotted names an import statement binds (``from a import b`` gives a, a.b)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


@register
class LayeringRule(Rule):
    """Reject upward imports against the layer contract, and import cycles."""

    rule_id = "layering"
    description = (
        "module imports must point sideways or down the declared layer "
        "contract, the module import graph must be acyclic, and no module "
        "imports threading, _thread or concurrent.futures"
    )
    fix_hint = (
        "invert the dependency (emit through a callback / move shared code "
        "down a layer); the contract lives in docs/architecture.md and "
        "repro/analysis/rules/layering.py"
    )

    def __init__(self, layers: Optional[Sequence[Tuple[str, Set[str]]]] = None,
                 root_package: str = ROOT_PACKAGE) -> None:
        self.layers = list(layers if layers is not None else DEFAULT_LAYERS)
        self.root_package = root_package
        self._index: Dict[str, Tuple[int, str]] = {}
        for depth, (label, keys) in enumerate(self.layers):
            for key in keys:
                self._index[key] = (depth, label)

    # ------------------------------------------------------------------
    def _layer_of(self, module: str) -> Optional[Tuple[int, str]]:
        """(depth, label) for a dotted module, None when outside the contract."""
        parts = module.split(".")
        if parts[0] == self.root_package:
            key = parts[1] if len(parts) > 1 else ""
        else:
            key = parts[0]
        return self._index.get(key)

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        """Every import of a thread module by a module inside the contract."""
        if self._layer_of(module.name) is None:
            return
        for node in ast.walk(module.tree):
            for name in _imported_modules(node):
                if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES):
                    yield self.finding(
                        module, node.lineno,
                        f"thread import: {module.name} imports {name}; one "
                        "thread drives the pipeline (docs/serving.md)",
                        fix_hint="keep the work on the driving thread; a second "
                                 "thread would need every lock this contract removed",
                    )
                    break

    def check_project(self, project: Project):
        findings: List[Finding] = []
        for edge in project.imports:
            src_layer = self._layer_of(edge.src)
            dst_layer = self._layer_of(edge.dst)
            if src_layer is None or dst_layer is None:
                continue  # outside the contract (tests, fixtures, scripts)
            if dst_layer[0] > src_layer[0]:
                module = project.modules[edge.src]
                findings.append(self.finding(
                    module, edge.line,
                    f"upward import: {edge.src} (layer {src_layer[0]}, "
                    f"{src_layer[1]}) imports {edge.dst} (layer {dst_layer[0]}, "
                    f"{dst_layer[1]})",
                ))
        findings.extend(self._cycles(project))
        return findings

    # ------------------------------------------------------------------
    def _cycles(self, project: Project) -> List[Finding]:
        """One finding per strongly connected component of size > 1."""
        adj = project.graph()
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            # Iterative Tarjan (explicit stack) — module graphs can be deep.
            work = [(v, iter(adj.get(v, ())))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, edges = work[-1]
                advanced = False
                for dst, _line in edges:
                    if dst not in index:
                        index[dst] = low[dst] = counter[0]
                        counter[0] += 1
                        stack.append(dst)
                        on_stack.add(dst)
                        work.append((dst, iter(adj.get(dst, ()))))
                        advanced = True
                        break
                    if dst in on_stack:
                        low[node] = min(low[node], index[dst])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for v in sorted(adj):
            if v not in index:
                strongconnect(v)

        findings = []
        for component in sccs:
            members = set(component)
            anchor = component[0]
            line = 1
            for dst, edge_line in adj.get(anchor, ()):
                if dst in members:
                    line = edge_line
                    break
            module = project.modules[anchor]
            findings.append(self.finding(
                module, line,
                "import cycle: " + " -> ".join(component + [component[0]]),
                fix_hint="break the cycle by extracting the shared piece into "
                         "a lower-layer module",
            ))
        return findings
