"""Interprocedural forward taint analysis over the call graph.

This is the small dataflow framework the ``determinism`` rule's n-hop
check is built on (and that future rules can reuse): a
:class:`TaintSpec` names the *sources* (expressions that produce a
tainted value — an unseeded RNG, a wall-clock read, an environment
variable), and the engine propagates that taint through the program
until it settles:

* through local bindings (``x = source()``, tuple unpacks, ``a if c else b``);
* through attributes (``self.rng = source()`` taints ``(Class, "rng")``
  project-wide, and any later ``self.rng`` / typed ``obj.rng`` read);
* through calls, in both directions: a call's result is tainted when the
  callee's *return summary* is tainted, and passing a tainted argument
  taints the callee's parameter for the next fixpoint round.

The analysis is flow-insensitive across rounds (a fixpoint over function
summaries) and deliberately does **not** taint data *derived from* a
tainted object (``rng.normal()`` output, arithmetic on a timestamp): the
rules built on it track the tainted value itself reaching a sink slot,
which keeps the false-positive surface small.  After convergence, a final
pass records :class:`TaintEvent` facts — every tainted assignment and
every tainted call argument, with the source location that originated the
taint — which rules filter into findings with their own sink predicates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .astutil import dotted_name, flat_statements
from .callgraph import CallGraph, FunctionInfo, _TypeEnv

__all__ = ["Taint", "TaintSpec", "TaintEvent", "TaintAnalysis", "run_taint"]

#: Fixpoint safety valve; real projects converge in a handful of rounds.
MAX_ROUNDS = 20


@dataclass(frozen=True)
class Taint:
    """One tainted value: a label (what kind) and its origin (where from)."""

    label: str    #: spec-defined category, e.g. ``unseeded-rng``
    origin: str   #: human-readable source site, e.g. ``file.py:84: np.random.default_rng()``


class TaintSpec:
    """What counts as a source; subclass and override :meth:`source_label`."""

    def source_label(self, node: ast.AST, func: FunctionInfo,
                     graph: CallGraph) -> Optional[str]:
        """Label when ``node`` (a Call/Attribute/Subscript) births taint."""
        return None


@dataclass(frozen=True)
class TaintEvent:
    """One observed flow of a tainted value, for rules to filter."""

    kind: str                     #: ``assign`` or ``call-arg``
    func: str                     #: qname of the function the event is in
    line: int                     #: 1-based source line
    taint: Taint                  #: what flowed
    target: str = ""              #: assign: ``self.rng`` / ``rng`` target text
    callee: str = ""              #: call-arg: resolved callee qname
    param: str = ""               #: call-arg: parameter name when known


class TaintAnalysis:
    """Converged taint facts: summaries plus the flat event list."""

    def __init__(self, graph: CallGraph, spec: TaintSpec) -> None:
        self.graph = graph
        self.spec = spec
        #: function qname -> taints its return value may carry
        self.returns: Dict[str, Set[Taint]] = {}
        #: (function qname, param name) -> taints callers may pass in
        self.params: Dict[Tuple[str, str], Set[Taint]] = {}
        #: (class qname, attr name) -> taints stored on instances
        self.attrs: Dict[Tuple[str, str], Set[Taint]] = {}
        self.events: List[TaintEvent] = []

    def run(self) -> "TaintAnalysis":
        """Iterate to fixpoint, then record events; returns self."""
        for _ in range(MAX_ROUNDS):
            before = (self._size(self.returns), self._size(self.params),
                      self._size(self.attrs))
            for func in self.graph.functions.values():
                _FunctionPass(self, func, record=False).run()
            after = (self._size(self.returns), self._size(self.params),
                     self._size(self.attrs))
            if after == before:
                break
        for func in self.graph.functions.values():
            _FunctionPass(self, func, record=True).run()
        self.events.sort(key=lambda e: (e.func, e.line, e.taint.label))
        return self

    @staticmethod
    def _size(table: Dict) -> int:
        return sum(len(v) for v in table.values())

    # -- helpers used by the per-function pass -------------------------
    def attr_taints(self, class_qname: Optional[str], attr: str) -> Set[Taint]:
        """Taints of ``attr`` over the class and its bases."""
        if class_qname is None:
            return set()
        out: Set[Taint] = set()
        for qname in self.graph.mro(class_qname):
            out |= self.attrs.get((qname, attr), set())
        return out

    def add_attr(self, class_qname: str, attr: str, taints: Set[Taint]) -> None:
        """Record taints stored on ``class_qname.attr``."""
        if taints:
            self.attrs.setdefault((class_qname, attr), set()).update(taints)


class _FunctionPass:
    """One forward pass over a function body (statements in source order)."""

    def __init__(self, analysis: TaintAnalysis, func: FunctionInfo,
                 record: bool) -> None:
        self.a = analysis
        self.func = func
        self.record = record
        self.env = _TypeEnv(analysis.graph, func)
        self.locals: Dict[str, Set[Taint]] = {}
        for arg in _arg_names(func.node):
            seeded = analysis.params.get((func.qname, arg))
            if seeded:
                self.locals[arg] = set(seeded)

    # -- expression taint ----------------------------------------------
    def taints_of(self, node: ast.AST) -> Set[Taint]:
        label = self.a.spec.source_label(node, self.func, self.a.graph)
        if label is not None:
            module = self.a.graph.project.modules.get(self.func.module)
            file = module.file if module is not None else self.func.module
            snippet = ""
            if module is not None:
                snippet = module.snippet(getattr(node, "lineno", 1))
            origin = f"{file}:{getattr(node, 'lineno', 1)}: {snippet}".rstrip(": ")
            return {Taint(label, origin)}
        if isinstance(node, ast.Name):
            return set(self.locals.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self.a.attr_taints(self.env.infer(node.value), node.attr)
        if isinstance(node, ast.Call):
            self._visit_call(node)
            out: Set[Taint] = set()
            for callee in self._callees(node):
                out |= self.a.returns.get(callee, set())
            return out
        if isinstance(node, ast.IfExp):
            return self.taints_of(node.body) | self.taints_of(node.orelse)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self.taints_of(value)
            return out
        if isinstance(node, (ast.Tuple, ast.List)):
            out = set()
            for elt in node.elts:
                out |= self.taints_of(elt)
            return out
        if isinstance(node, ast.NamedExpr):
            taints = self.taints_of(node.value)
            self.locals[node.target.id] = set(taints)
            return taints
        if isinstance(node, (ast.Await, ast.Starred)):
            return self.taints_of(node.value)
        return set()

    def _callees(self, call: ast.Call) -> Tuple[str, ...]:
        for site in self.a.graph.sites.get(self.func.qname, ()):
            if site.node is call:
                return site.callees
        return ()

    def _visit_call(self, call: ast.Call) -> None:
        """Propagate tainted arguments into callee parameters (+ events)."""
        callees = self._callees(call)
        args: List[Tuple[str, ast.AST]] = []
        for i, arg in enumerate(call.args):
            args.append((f"#{i}", arg if not isinstance(arg, ast.Starred)
                         else arg.value))
        for kw in call.keywords:
            args.append((kw.arg or "**", kw.value))
        for slot, expr in args:
            taints = self.taints_of(expr)
            if not taints:
                continue
            for callee in callees or ("",):
                param = self._param_name(callee, slot)
                if callee and param:
                    self.a.params.setdefault((callee, param), set()).update(taints)
                if self.record:
                    for taint in taints:
                        self.a.events.append(TaintEvent(
                            kind="call-arg", func=self.func.qname,
                            line=call.lineno, taint=taint,
                            callee=callee, param=param or slot,
                        ))

    def _param_name(self, callee: str, slot: str) -> Optional[str]:
        info = self.a.graph.functions.get(callee)
        if info is None:
            return None
        names = _arg_names(info.node)
        if info.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        if slot.startswith("#"):
            idx = int(slot[1:])
            return names[idx] if idx < len(names) else None
        return slot if slot in names else None

    # -- statement walk ------------------------------------------------
    def run(self) -> None:
        for stmt in flat_statements(self.func.node.body):
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self.taints_of(stmt.value)
            for target in stmt.targets:
                self._bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.taints_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self.taints_of(stmt.value)
            if isinstance(stmt.target, ast.Name):
                taints = taints | set(self.locals.get(stmt.target.id, ()))
            self._bind(stmt.target, taints)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taints = self.taints_of(stmt.value)
                if taints:
                    self.a.returns.setdefault(self.func.qname, set()).update(taints)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.taints_of(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints)
        elif isinstance(stmt, ast.For):
            self.taints_of(stmt.iter)
        else:
            for expr in _stmt_exprs(stmt):
                self.taints_of(expr)

    def _bind(self, target: ast.AST, taints: Set[Taint]) -> None:
        if isinstance(target, ast.Name):
            if taints:
                self.locals[target.id] = set(taints)
                self._record_assign(target.id, target.lineno, taints)
            else:
                self.locals.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            owner = self.env.infer(target.value)
            if taints and owner is not None:
                self.a.add_attr(owner, target.attr, taints)
                text = f"{dotted_name(target) or target.attr}"
                self._record_assign(text, target.lineno, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taints)
        # subscript stores don't bind names; taint dies there

    def _record_assign(self, target: str, line: int, taints: Set[Taint]) -> None:
        if not self.record:
            return
        for taint in taints:
            self.a.events.append(TaintEvent(
                kind="assign", func=self.func.qname, line=line,
                taint=taint, target=target,
            ))


def _arg_names(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    names += [a.arg for a in args.kwonlyargs]
    return names


def _stmt_exprs(stmt: ast.stmt):
    """Top-level expression children of a statement (not nested blocks)."""
    for name in ("value", "test", "exc", "iter", "target"):
        child = getattr(stmt, name, None)
        if isinstance(child, ast.expr):
            yield child


def run_taint(graph: CallGraph, spec: TaintSpec) -> TaintAnalysis:
    """Run ``spec`` to fixpoint over ``graph``; returns the converged facts."""
    return TaintAnalysis(graph, spec).run()
