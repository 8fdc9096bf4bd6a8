"""Whole-program call graph over a parsed :class:`~repro.analysis.project.Project`.

This module is the spine of the interprocedural checks (``determinism``,
``hotpath``): it turns the per-module ASTs into a project-wide symbol
table (every function, method, and class under a stable qualified name),
resolves call sites to their targets, and answers reachability queries.

Resolution is deliberately *static and conservative* — no code is ever
imported or executed:

* direct calls (``helper()``), module-qualified calls (``mod.helper()``),
  and imported names (``from m import helper``) resolve through each
  module's import environment;
* constructor calls (``AdmissionQueue(...)``) resolve to the class and its
  ``__init__`` when one exists;
* method calls resolve through a light type-inference pass: ``self``
  binds to the enclosing class, ``self.attr`` types come from
  ``__init__``-time assignments (``self.q = AdmissionQueue(...)``,
  annotated parameters passed through, ``self.x: T`` annotations), locals
  pick up types from annotations and constructor assignments, and chained
  calls follow return-type annotations (``get_registry().gauge(n).set(v)``);
* property accesses (``queue.depth``) produce call edges to the getter,
  because evaluating a property *does* run its body (and may allocate);
* decorators are transparent: a decorated function keeps its name and its
  edges, and ``super().m()`` resolves through the base-class list.

Anything unresolvable (dynamic dispatch through unknown objects, calls on
values whose type inference loses track of) simply produces no edge —
rules built on the graph are therefore *may-miss*, never import-unsound.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .astutil import dotted_name, self_attr
from .project import ModuleInfo, Project

__all__ = ["FunctionInfo", "ClassInfo", "CallSite", "CallEdge", "CallGraph",
           "build_call_graph", "call_graph_for"]


@dataclass
class FunctionInfo:
    """One function or method in the project, under a stable qualified name."""

    qname: str                    #: ``repro.serving.queue.AdmissionQueue.submit``
    module: str                   #: dotted module name
    name: str                     #: bare function name
    node: ast.AST                 #: the FunctionDef/AsyncFunctionDef node
    cls: Optional[str] = None     #: owning class qname (None for plain functions)
    decorators: Tuple[str, ...] = ()   #: dotted decorator names (best effort)
    returns: Optional[str] = None      #: resolved return-type class qname

    @property
    def is_property(self) -> bool:
        """True when the function is decorated as a property getter."""
        return any(d == "property" or d.endswith(".getter") for d in self.decorators)

    @property
    def lineno(self) -> int:
        """1-based definition line."""
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class: its methods, resolved bases, and inferred attribute types."""

    qname: str                     #: ``repro.serving.queue.AdmissionQueue``
    module: str                    #: dotted module name
    name: str                      #: bare class name
    node: ast.ClassDef             #: the ClassDef node
    bases: List[str] = field(default_factory=list)      #: resolved base qnames
    methods: Dict[str, str] = field(default_factory=dict)  #: bare name -> func qname
    attr_types: Dict[str, str] = field(default_factory=dict)  #: self.attr -> class qname


@dataclass
class CallSite:
    """One resolved call (or property access) inside a function body."""

    node: ast.AST                  #: the Call (or Attribute, for properties) node
    line: int                      #: 1-based source line
    callees: Tuple[str, ...]       #: resolved target function qnames


@dataclass(frozen=True)
class CallEdge:
    """``caller`` may invoke ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


class CallGraph:
    """Symbol table + resolved call edges + reachability queries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: List[CallEdge] = []
        #: per-function resolved call sites, in source order
        self.sites: Dict[str, List[CallSite]] = {}
        self._out: Dict[str, List[CallEdge]] = {}
        self._in: Dict[str, List[CallEdge]] = {}
        #: per-module import environment: local name -> dotted target
        self._imports: Dict[str, Dict[str, str]] = {}
        #: per-module global instance types: name -> class qname
        self._global_types: Dict[str, Dict[str, str]] = {}

    # -- queries -------------------------------------------------------
    def callees(self, qname: str) -> List[CallEdge]:
        """Outgoing edges of ``qname`` (empty for unknown names)."""
        return list(self._out.get(qname, ()))

    def callers(self, qname: str) -> List[CallEdge]:
        """Incoming edges of ``qname`` (empty for unknown names)."""
        return list(self._in.get(qname, ()))

    def find(self, pattern: str) -> List[str]:
        """Function qnames matching a glob ``pattern`` (sorted)."""
        return sorted(q for q in self.functions if fnmatchcase(q, pattern))

    def reachable(self, entries: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
        """BFS closure from ``entries``: qname -> call path from an entry.

        The path (a tuple of qnames, entry first) is the shortest witness,
        used by rules to explain *why* a function is on a hot path.
        """
        paths: Dict[str, Tuple[str, ...]] = {}
        frontier: List[str] = []
        for entry in entries:
            if entry in self.functions and entry not in paths:
                paths[entry] = (entry,)
                frontier.append(entry)
        while frontier:
            nxt: List[str] = []
            for caller in frontier:
                for edge in self._out.get(caller, ()):
                    if edge.callee not in paths:
                        paths[edge.callee] = paths[caller] + (edge.callee,)
                        nxt.append(edge.callee)
            frontier = nxt
        return paths

    def mro(self, class_qname: str) -> List[str]:
        """The class plus its (project-resolved) bases, nearest first."""
        order: List[str] = []
        stack = [class_qname]
        while stack:
            qname = stack.pop(0)
            if qname in order or qname not in self.classes:
                continue
            order.append(qname)
            stack.extend(self.classes[qname].bases)
        return order

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        """Function qname implementing ``method`` on ``class_qname`` (via MRO)."""
        for qname in self.mro(class_qname):
            hit = self.classes[qname].methods.get(method)
            if hit is not None:
                return hit
        return None

    def dispatch_targets(self, class_qname: str, method: str) -> List[str]:
        """Implementations a call on a ``class_qname`` receiver may run.

        Its own (via MRO) plus every project subclass's override: a
        value typed as an interface may hold any implementation.
        """
        hits = [self.resolve_method(class_qname, method)]
        frontier = [class_qname]
        while frontier:
            frontier = [c.qname for c in self.classes.values()
                        if any(base in frontier for base in c.bases)]
            hits.extend(self.classes[q].methods.get(method) for q in frontier)
        return sorted({hit for hit in hits if hit is not None})

    def module_env(self, module: str) -> Dict[str, str]:
        """The import environment of ``module`` (name -> dotted target)."""
        return self._imports.get(module, {})

    # -- construction helpers (used by the builder) --------------------
    def _add_edge(self, caller: str, callee: str, line: int) -> None:
        edge = CallEdge(caller, callee, line)
        self.edges.append(edge)
        self._out.setdefault(caller, []).append(edge)
        self._in.setdefault(callee, []).append(edge)


# ----------------------------------------------------------------------
# pass 1: symbols
# ----------------------------------------------------------------------

def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names = []
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.append(name)
    return tuple(names)


def _collect_symbols(graph: CallGraph, module: ModuleInfo) -> None:
    """Register every function, method, and class defined in ``module``."""

    def walk_body(body: List[ast.stmt], prefix: str, cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qname=qname, module=module.name, name=stmt.name,
                    node=stmt, cls=cls, decorators=_decorator_names(stmt),
                )
                graph.functions[qname] = info
                if cls is not None:
                    graph.classes[cls].methods.setdefault(stmt.name, qname)
                # nested defs get their own entries under the parent's qname
                walk_body(stmt.body, qname, None)
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{prefix}.{stmt.name}"
                graph.classes[qname] = ClassInfo(
                    qname=qname, module=module.name, name=stmt.name, node=stmt,
                )
                walk_body(stmt.body, qname, qname)

    walk_body(module.tree.body, module.name, None)


def _collect_imports(graph: CallGraph, module: ModuleInfo) -> None:
    """Build the name -> dotted-target environment for one module."""
    env: Dict[str, str] = {}
    parts = module.name.split(".")
    anchor = parts if module.is_package else parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                env[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    env[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = anchor[: len(anchor) - (node.level - 1)]
                if node.level - 1 > len(anchor):
                    continue
            else:
                base_parts = []
            if node.module:
                base_parts = base_parts + node.module.split(".")
            base = ".".join(p for p in base_parts if p)
            for alias in node.names:
                if alias.name == "*":
                    continue
                env[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    graph._imports[module.name] = env


def _resolve_symbol(graph: CallGraph, module: str, name: str) -> Optional[str]:
    """Dotted ``name`` as seen from ``module`` -> project symbol qname."""
    env = graph.module_env(module)
    parts = name.split(".")
    # longest imported prefix wins: `m.attr.f` with `import m.attr as ma`...
    for cut in range(len(parts), 0, -1):
        head = ".".join(parts[:cut])
        target = env.get(head)
        if target is not None:
            candidate = ".".join([target] + parts[cut:])
            break
    else:
        candidate = f"{module}.{name}"
    for table in (graph.functions, graph.classes):
        if candidate in table:
            return candidate
    # an imported module's attribute: `from repro import obs; obs.get_tracer`
    return None


# ----------------------------------------------------------------------
# pass 2: types
# ----------------------------------------------------------------------

def _annotation_to_class(graph: CallGraph, module: str,
                         annotation: Optional[ast.AST]) -> Optional[str]:
    """Class qname an annotation refers to (Optional[...]/strings unwrapped)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        # Optional[X] / Final[X]: look inside; Tuple/List of things: give up.
        base = dotted_name(annotation.value) or ""
        if base.split(".")[-1] in ("Optional", "Final", "Annotated"):
            inner = annotation.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_to_class(graph, module, inner)
        return None
    name = dotted_name(annotation)
    if name is None:
        return None
    resolved = _resolve_symbol(graph, module, name)
    if resolved in graph.classes:
        return resolved
    return None


class _TypeEnv:
    """Local name -> class qname map for one function body."""

    def __init__(self, graph: CallGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.locals: Dict[str, str] = {}
        node = func.node
        if func.cls is not None and getattr(node, "args", None) is not None:
            args = node.args
            if args.args and args.args[0].arg in ("self", "cls"):
                self.locals[args.args[0].arg] = func.cls
        for arg in _all_args(node):
            cls = _annotation_to_class(graph, func.module, arg.annotation)
            if cls is not None:
                self.locals[arg.arg] = cls

    def infer(self, expr: ast.AST) -> Optional[str]:
        """Class qname ``expr`` evaluates to, or None when unknown."""
        graph, func = self.graph, self.func
        if isinstance(expr, ast.Name):
            if expr.id in self.locals:
                return self.locals[expr.id]
            return graph._global_types.get(func.module, {}).get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.infer(expr.value)
            if owner is not None:
                for qname in graph.mro(owner):
                    hit = graph.classes[qname].attr_types.get(expr.attr)
                    if hit is not None:
                        return hit
                # a property access types as the getter's return annotation
                target = graph.resolve_method(owner, expr.attr)
                if target is not None and graph.functions[target].is_property:
                    return graph.functions[target].returns
            return None
        if isinstance(expr, ast.Call):
            targets = _resolve_call_targets(graph, func, self, expr)
            for target in targets:
                if target in graph.classes:
                    return target
                info = graph.functions.get(target)
                if info is not None and info.name == "__init__" and info.cls:
                    return info.cls
                if info is not None and info.returns:
                    return info.returns
            return None
        if isinstance(expr, ast.IfExp):
            return self.infer(expr.body) or self.infer(expr.orelse)
        if isinstance(expr, ast.NamedExpr):
            return self.infer(expr.value)
        if isinstance(expr, ast.Await):
            return self.infer(expr.value)
        return None


def _all_args(node: ast.AST) -> List[ast.arg]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def _collect_attr_types(graph: CallGraph, cls: ClassInfo) -> None:
    """Infer ``self.attr`` types from method bodies (``__init__`` first)."""
    ordered = sorted(
        cls.methods.items(), key=lambda kv: (kv[0] != "__init__", kv[0]))
    for _name, func_qname in ordered:
        func = graph.functions[func_qname]
        env = _TypeEnv(graph, func)
        for node in ast.walk(func.node):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                cls_from_ann = _annotation_to_class(
                    graph, func.module, node.annotation)
                if cls_from_ann and self_attr(target):
                    cls.attr_types.setdefault(target.attr, cls_from_ann)
                value = node.value
            if value is not None and self_attr(target):
                inferred = env.infer(value)
                if inferred is not None:
                    cls.attr_types.setdefault(target.attr, inferred)


def _collect_global_types(graph: CallGraph, module: ModuleInfo) -> None:
    """Module-level singleton instances (``_REGISTRY = Registry()``)."""
    types: Dict[str, str] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Call):
            name = dotted_name(stmt.value.func)
            if name is None:
                continue
            resolved = _resolve_symbol(graph, module.name, name)
            if resolved in graph.classes:
                types[stmt.targets[0].id] = resolved
    graph._global_types[module.name] = types


def _resolve_returns(graph: CallGraph) -> None:
    for func in graph.functions.values():
        annotation = getattr(func.node, "returns", None)
        func.returns = _annotation_to_class(graph, func.module, annotation)


def _resolve_bases(graph: CallGraph) -> None:
    for cls in graph.classes.values():
        for base in cls.node.bases:
            name = dotted_name(base)
            if name is None:
                continue
            resolved = _resolve_symbol(graph, cls.module, name)
            if resolved in graph.classes:
                cls.bases.append(resolved)


# ----------------------------------------------------------------------
# pass 3: edges
# ----------------------------------------------------------------------

def _resolve_call_targets(graph: CallGraph, func: FunctionInfo,
                          env: _TypeEnv, call: ast.Call) -> List[str]:
    """Project symbols a call may dispatch to (functions or classes)."""
    target = call.func
    # super().m(...)
    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Call)
            and isinstance(target.value.func, ast.Name)
            and target.value.func.id == "super" and func.cls is not None):
        for base in graph.classes[func.cls].bases:
            hit = graph.resolve_method(base, target.attr)
            if hit is not None:
                return [hit]
        return []
    name = dotted_name(target)
    if name is not None:
        # nested function defined in this (or an enclosing) scope
        scope = func.qname
        while "." in scope:
            candidate = f"{scope}.{name}"
            if candidate in graph.functions:
                return [candidate]
            scope = scope.rsplit(".", 1)[0]
        resolved = _resolve_symbol(graph, func.module, name)
        if resolved is not None:
            return [resolved]
    if isinstance(target, ast.Attribute):
        owner = env.infer(target.value)
        if owner is not None:
            return graph.dispatch_targets(owner, target.attr)
    return []


def _normalize_targets(graph: CallGraph, targets: List[str]) -> List[str]:
    """Map class targets to their ``__init__`` (when defined) for edges."""
    out = []
    for target in targets:
        if target in graph.classes:
            init = graph.resolve_method(target, "__init__")
            out.append(init if init is not None else target)
        else:
            out.append(target)
    return out


def _collect_edges(graph: CallGraph, func: FunctionInfo) -> None:
    env = _TypeEnv(graph, func)
    sites: List[CallSite] = []

    # locals pick up constructor/annotation types in source order first:
    # a single forward pass is enough for the idioms the repo uses.
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            inferred = env.infer(node.value)
            if inferred is not None:
                env.locals.setdefault(node.targets[0].id, inferred)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            cls = _annotation_to_class(graph, func.module, node.annotation)
            if cls is not None:
                env.locals.setdefault(node.target.id, cls)
        elif isinstance(node, ast.With):
            for item in node.items:
                if item.optional_vars is not None and \
                        isinstance(item.optional_vars, ast.Name):
                    inferred = env.infer(item.context_expr)
                    if inferred is not None:
                        env.locals.setdefault(item.optional_vars.id, inferred)

    nested_ids: Set[int] = set()
    for n in ast.walk(func.node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not func.node:
            nested_ids.update(id(sub) for sub in ast.walk(n) if sub is not n)

    for node in ast.walk(func.node):
        if id(node) in nested_ids:
            continue  # nested defs are their own functions in the graph
        if isinstance(node, ast.Call):
            targets = _normalize_targets(
                graph, _resolve_call_targets(graph, func, env, node))
            targets = [t for t in targets if t in graph.functions]
            if targets:
                sites.append(CallSite(node=node, line=node.lineno,
                                      callees=tuple(sorted(set(targets)))))
                for callee in sites[-1].callees:
                    graph._add_edge(func.qname, callee, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node is not getattr(getattr(node, "parent", None), "func", None):
            # property access runs the getter: emit a call edge for it
            owner = env.infer(node.value)
            if owner is not None:
                target = graph.resolve_method(owner, node.attr)
                if target is not None and graph.functions[target].is_property:
                    sites.append(CallSite(node=node, line=node.lineno,
                                          callees=(target,)))
                    graph._add_edge(func.qname, target, node.lineno)
    sites.sort(key=lambda s: (s.line, getattr(s.node, "col_offset", 0)))
    graph.sites[func.qname] = sites


def _mark_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def call_graph_for(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the project.

    Every interprocedural check calls this, so a full analysis run
    pays the graph-construction cost exactly once per loaded project.
    """
    cached = getattr(project, "_call_graph", None)
    if cached is None:
        cached = build_call_graph(project)
        project._call_graph = cached  # type: ignore[attr-defined]
    return cached


def build_call_graph(project: Project) -> CallGraph:
    """Build the whole-program :class:`CallGraph` for ``project``."""
    graph = CallGraph(project)
    for module in project.modules.values():
        _collect_symbols(graph, module)
        _collect_imports(graph, module)
    _resolve_bases(graph)
    _resolve_returns(graph)
    for module in project.modules.values():
        _collect_global_types(graph, module)
    for cls in graph.classes.values():
        _collect_attr_types(graph, cls)
    for module in project.modules.values():
        _mark_parents(module.tree)
    for func in list(graph.functions.values()):
        _collect_edges(graph, func)
    return graph
