"""Lock discipline: guarded writes, no re-acquisition, one acquisition order.

The serving admission queue, the tracer, and the profiler are documented
thread-safe.  Any class whose ``__init__`` assigns
``self._lock`` is a *lock owner*; one lexical walk over each owner's
methods records, per method, its ``self.<attr>`` writes, its
``with self._lock:`` acquisitions, and every call with whether it sits
inside a locked region.  That walk feeds two checks.

**Lockset** (over the intra-class call graph):

* every public method (and every private method never called from inside
  the class) is an *entry*, assumed to be invoked with the lock **not**
  held;
* lock state propagates through ``self.helper()`` calls — a call inside a
  ``with self._lock:`` block enters the helper with the lock held, a call
  outside enters it bare, and helpers inherit the caller's state
  transitively;
* a write to ``self.<attr>`` is flagged iff some path from an entry
  reaches it with the lock not held — and the finding names that path.

``__init__``/``__post_init__``/``__new__`` stay exempt as callers and as
writers: the object is not shared yet.

**Order** (over the whole-program call graph).  Code paths may nest
locks (a queue that updates a metrics object *while holding* its own
lock, as ``Queue.push`` does in the ``lockorder`` test fixture); that is
fine as long as every thread acquires in one global order.  So:

* every function gets the set of owners whose lock it may acquire —
  directly or through any resolved call (fixpoint over the call graph);
* each call inside a locked region adds an order edge ``holder ->
  acquired`` for every lock the callee may take — re-acquiring the
  *holder's own* lock is reported at once (``threading.Lock`` is not
  re-entrant: a guaranteed one-thread deadlock);
* every cycle in the acquisition-order graph is reported as a potential
  deadlock, naming one witness site.

Resolution is conservative: an unresolvable dynamic call contributes no
edge, so order findings are high-confidence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from ..astutil import owned_exprs, self_attr, short_name
from ..callgraph import CallGraph, call_graph_for
from ..framework import Rule, register
from ..project import Project

__all__ = ["LockRule", "collect_lock_facts", "unlocked_reachable",
           "MethodFacts", "LOCK_ATTR", "UNGUARDED_METHODS", "assigns_lock"]

#: Methods allowed to write without the lock (object not yet shared).
UNGUARDED_METHODS = {"__init__", "__post_init__", "__new__"}
LOCK_ATTR = "_lock"


def assigns_lock(func: ast.AST) -> bool:
    """True when ``func`` (an ``__init__``) binds ``self._lock``."""
    return any(isinstance(node, ast.Assign)
               and any(self_attr(t) == LOCK_ATTR for t in node.targets)
               for node in ast.walk(func))


def _expr_calls(expr: ast.expr) -> Iterator[ast.Call]:
    """Call nodes in ``expr``, skipping lambda bodies (they run later)."""
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class MethodFacts:
    """Lock-relevant facts about one method, from a single lexical walk."""

    name: str
    node: ast.AST
    #: ``(attr, lineno, locked)`` for every ``self.<attr>`` store
    writes: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: ``(call, locked)`` for every call, in source order
    calls: List[Tuple[ast.Call, bool]] = field(default_factory=list)
    #: lines of ``with self._lock:`` acquisitions (lexical)
    acquire_lines: List[int] = field(default_factory=list)

    @property
    def self_calls(self) -> List[Tuple[str, int, bool]]:
        """``(method, lineno, locked)`` for every ``self.<method>()`` call."""
        return [(self_attr(call.func), call.lineno, locked)
                for call, locked in self.calls if self_attr(call.func)]


def collect_lock_facts(cls: ast.ClassDef) -> Dict[str, MethodFacts]:
    """Per-method lock facts for a lock-owning class (all methods)."""
    facts: Dict[str, MethodFacts] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        mf = MethodFacts(name=method.name, node=method)
        _walk(method.body, False, mf)
        facts[method.name] = mf
    return facts


def _walk(stmts: List[ast.stmt], locked: bool, mf: MethodFacts) -> None:
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes run later, outside this lock region
        for expr in owned_exprs(stmt):
            mf.calls.extend((call, locked) for call in _expr_calls(expr))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquires = any(self_attr(item.context_expr) == LOCK_ATTR
                           for item in stmt.items)
            if acquires:
                mf.acquire_lines.append(stmt.lineno)
            _walk(stmt.body, locked or acquires, mf)
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                attr = self_attr(target)
                if attr and attr != LOCK_ATTR:
                    mf.writes.append((attr, stmt.lineno, locked))
        for body in (getattr(stmt, "body", None), getattr(stmt, "orelse", None),
                     getattr(stmt, "finalbody", None)):
            if body:
                _walk(body, locked, mf)
        for handler in getattr(stmt, "handlers", ()) or ():
            _walk(handler.body, locked, mf)
        for case in getattr(stmt, "cases", ()) or ():
            _walk(case.body, locked, mf)


def _is_entry(name: str) -> bool:
    """Public surface: plain public names and dunders (``__len__``, ...)."""
    if name in UNGUARDED_METHODS:
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def unlocked_reachable(facts: Dict[str, MethodFacts]) -> Dict[str, Tuple[str, ...]]:
    """Methods reachable with the lock *not* held, with a witness path.

    Entries are the public methods plus private methods never called from
    inside the class (they may be invoked externally); ``__init__``-family
    methods never seed or propagate reachability (the object is unshared
    while they run).
    """
    self_calls = {name: mf.self_calls for name, mf in facts.items()}
    called = {callee for name, calls in self_calls.items()
              if name not in UNGUARDED_METHODS
              for callee, _, _ in calls}
    unlocked: Dict[str, Tuple[str, ...]] = {}
    frontier: List[str] = []
    for name in sorted(facts):
        if name in UNGUARDED_METHODS:
            continue
        if _is_entry(name) or name not in called:
            unlocked[name] = (name,)
            frontier.append(name)
    while frontier:
        nxt: List[str] = []
        for name in frontier:
            for callee, _line, locked in self_calls[name]:
                if locked or callee in UNGUARDED_METHODS:
                    continue
                if callee in facts and callee not in unlocked:
                    unlocked[callee] = unlocked[name] + (callee,)
                    nxt.append(callee)
        frontier = nxt
    return unlocked


def _may_acquire(graph: CallGraph, direct: Dict[str, str]) -> Dict[str, Set[str]]:
    """Fixpoint: function qname -> lock-owner classes it may acquire.

    ``direct`` maps each function holding a literal ``with self._lock:``
    to its owner class.
    """
    acq: Dict[str, Set[str]] = {
        q: ({direct[q]} if q in direct else set()) for q in graph.functions
    }
    changed = True
    while changed:
        changed = False
        for qname in graph.functions:
            merged = set(acq[qname])
            for edge in graph.callees(qname):
                merged |= acq.get(edge.callee, set())
            if merged != acq[qname]:
                acq[qname] = merged
                changed = True
    return acq


@register
class LockRule(Rule):
    """Guarded writes hold the lock; no re-acquisition; one global order."""

    rule_id = "locks"
    description = (
        "in classes that create self._lock, every attribute write holds the "
        "lock on every call path from a public entry; no call path "
        "re-acquires a held (non-reentrant) lock; nested acquisitions "
        "follow one global order"
    )
    fix_hint = (
        "wrap the write in `with self._lock:` (or enter the helper with the "
        "lock held); for a re-acquisition or an order cycle, hoist the inner "
        "acquisition out of the locked region (compute under the lock, "
        "publish after) or take the locks in one order everywhere"
    )

    def check_project(self, project: Project) -> Iterator:
        """Lockset and re-acquisition findings per owner, then order cycles."""
        graph = call_graph_for(project)
        owners: Dict[str, Dict[str, MethodFacts]] = {}
        for cls in graph.classes.values():
            init = cls.methods.get("__init__")
            if init is not None and assigns_lock(graph.functions[init].node):
                owners[cls.qname] = collect_lock_facts(cls.node)
        direct = {f"{owner}.{name}": owner for owner, facts in owners.items()
                  for name, mf in facts.items() if mf.acquire_lines}
        acq = _may_acquire(graph, direct)
        # holder class -> acquired class -> first witness (module, line, text)
        order: Dict[str, Dict[str, Tuple[str, int, str]]] = {}
        for holder, facts in sorted(owners.items()):
            cls = graph.classes[holder]
            module = project.modules[cls.module]
            yield from self._lockset(module, cls.name, facts)
            for name, mf in sorted(facts.items()):
                qname = f"{holder}.{name}"
                sites = {id(s.node): s.callees for s in graph.sites.get(qname, ())}
                for call, locked in mf.calls:
                    if not locked:
                        continue
                    for callee in sites.get(id(call), ()):
                        for acquired in sorted(acq.get(callee, ())):
                            if acquired == holder:
                                yield self.finding(
                                    module, call.lineno,
                                    f"re-acquisition of {short_name(holder)}._lock: "
                                    f"{short_name(qname)} calls {short_name(callee)} "
                                    f"with the lock already held; threading.Lock "
                                    f"is not re-entrant, this path self-deadlocks",
                                )
                            else:
                                order.setdefault(holder, {}).setdefault(
                                    acquired, (cls.module, call.lineno,
                                               f"{short_name(qname)} -> {short_name(callee)}"))
        yield from self._report_cycles(project, order)

    # ------------------------------------------------------------------
    def _lockset(self, module, cls_name: str,
                 facts: Dict[str, MethodFacts]) -> Iterator:
        """Writes some entry path reaches with the lock not held."""
        for name, path in sorted(unlocked_reachable(facts).items()):
            for attr, line, locked in facts[name].writes:
                if locked:
                    continue
                via = ""
                if len(path) > 1:
                    via = (" (reachable without the lock via "
                           + " -> ".join(f"{cls_name}.{p}" for p in path) + ")")
                yield self.finding(
                    module, line,
                    f"unguarded write to self.{attr} in {cls_name}.{name}: "
                    f"class owns self._lock, so shared state must be "
                    f"written under it{via}",
                )

    def _report_cycles(self, project: Project,
                       order: Dict[str, Dict[str, Tuple[str, int, str]]]) -> Iterator:
        """DFS cycle detection over the acquisition-order graph."""
        seen_cycles: Set[Tuple[str, ...]] = set()
        for start in sorted(order):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(order.get(node, ())):
                    if nxt == start:
                        cycle = tuple(sorted(path))
                        if cycle in seen_cycles:
                            continue
                        seen_cycles.add(cycle)
                        names = " -> ".join(short_name(c) for c in path + [start])
                        witness_mod, line, via = order[node][nxt]
                        yield self.finding(
                            project.modules[witness_mod], line,
                            f"lock-order inversion: acquisition cycle "
                            f"{names} (witness: {via}); opposite nesting "
                            f"orders can deadlock under concurrency",
                        )
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))
