"""View discipline: zero-copy arena views are read-only and short-lived.

``Arena.view()``, ``KVCache.layer()``/``last_layer()``/``positions``,
``HybridKVCache.gather()`` and the ``BlockTable`` row APIs
(``layer_blocks``/``position_rows``/``gather_rows``) return arrays that
alias arena storage and are documented **valid until the next mutation**
of the cache that produced them.  One per-scope tracker follows every
local bound to such a view (a slice of a view is still a view, and
``w = v`` aliases it too; rebinding — including to an explicit ``.copy()``
— clears it) and reports both halves of the contract:

* **write-through** — a subscript store or augmented assignment through a
  view (``view[i] = x``, ``view += y``, ``hybrid.gather(0)[0] = z``)
  corrupts cache state for every other reader;
* **stale read / stale return** — a view used (or returned) after a
  mutating call (``append``/``rollback``/``clear_draft``/...) on *the same
  receiver*: ``rows = table.gather_rows(...); table.append(...);
  score(rows)`` may read a re-packed block.  Only a mutator on the same
  dotted receiver invalidates, so ``results.append(x)`` never trips it;
* **store on self** — ``self.cached = table.layer_blocks(...)`` makes the
  view outlive the call frame, so any later mutation invalidates it with
  no visible signal;
* **closure capture** — a nested ``def`` or ``lambda`` closing over a view
  may run after a mutation.

The lifetime checks (the last three) ignore views produced by plain
``self``: inside the producing class the view contract is the class's own
to manage (the reference cache reslicing ``self.positions`` is
bookkeeping, not an escape).  Write-through applies to every receiver.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..astutil import (dotted_name, flat_statements, owned_exprs, self_attr,
                       walk_functions)
from ..framework import Rule, register
from ..project import ModuleInfo, Project

__all__ = ["ViewRule", "VIEW_METHODS", "VIEW_ATTRS", "MUTATORS"]

#: Methods whose return values alias arena storage.
VIEW_METHODS = {"view", "layer", "last_layer", "gather",
                "layer_blocks", "position_rows", "gather_rows"}
#: Attributes (properties) whose values alias arena storage.
VIEW_ATTRS = {"positions"}
#: Cache methods that invalidate previously returned views.
MUTATORS = {"append", "append_context", "append_draft", "clear_draft",
            "truncate", "keep_rows", "extend_positions", "rollback"}


@dataclass
class _ViewInfo:
    """A local currently bound to a zero-copy view."""

    receiver: str        #: dotted receiver that produced it ("" if unknown)
    bind_line: int
    stale_line: int = 0  #: line of the invalidating mutator call (0 = fresh)
    mutator: str = ""    #: name of the invalidating mutator

    @property
    def escapes(self) -> bool:
        """Lifetime checks apply (the view did not come from plain ``self``)."""
        return self.receiver != "self"


def _view_receiver(node: ast.AST) -> Optional[str]:
    """Dotted receiver when ``node`` evaluates to a view, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in VIEW_METHODS:
            return dotted_name(node.func.value) or ""
    elif isinstance(node, ast.Attribute) and node.attr in VIEW_ATTRS:
        return dotted_name(node.value) or ""
    elif isinstance(node, ast.Subscript):
        return _view_receiver(node.value)  # a slice of a view is a view
    return None


def _target_names(target: ast.AST) -> List[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _target_names(elt)]
    return []


def _subscript_base(node: ast.AST) -> ast.AST:
    """Innermost value of nested subscripts: ``x`` for ``x[0][1:]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


@register
class ViewRule(Rule):
    """Flag writes through arena views and views used past their window."""

    rule_id = "views"
    description = (
        "zero-copy arena views (view/layer/last_layer/gather/layer_blocks/"
        "position_rows/gather_rows/positions) are never written in place, "
        "and are not read after a mutator call, stored on self, or captured "
        "by a closure"
    )
    fix_hint = (
        "mutate through the cache API (append/truncate) and consume the view "
        "before mutating the cache; take an explicit .copy() when the value "
        "must be written or must outlive the next append/rollback"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator:
        """Track view bindings through every function scope in the module."""
        for _scope, body in walk_functions(module.tree):
            yield from self._check_scope(module, body)

    # ------------------------------------------------------------------
    def _check_scope(self, module: ModuleInfo, body: List[ast.stmt]) -> Iterator:
        views: Dict[str, _ViewInfo] = {}
        for stmt in flat_statements(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_capture(module, stmt, stmt.name, views)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            yield from self._check_writes(module, stmt, views)
            bound = self._bound_names(stmt)
            for expr in owned_exprs(stmt):
                yield from self._check_reads(module, stmt, expr, views, bound)
            self._apply_mutators(stmt, views)
            yield from self._apply_bindings(module, stmt, views)

    def _check_writes(self, module: ModuleInfo, stmt: ast.stmt,
                      views: Dict[str, _ViewInfo]) -> Iterator:
        """Subscript stores and augmented assignments through a view."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                yield from self._check_store(module, target, views)
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id in views:
                yield self.finding(
                    module, stmt.lineno,
                    f"augmented assignment mutates zero-copy view "
                    f"{target.id!r} in place",
                )
            else:
                yield from self._check_store(module, target, views)

    def _check_store(self, module: ModuleInfo, target: ast.AST,
                     views: Dict[str, _ViewInfo]) -> Iterator:
        """Flag subscript stores whose base is a view name or view call."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_store(module, elt, views)
            return
        if not isinstance(target, ast.Subscript):
            return
        base = _subscript_base(target)
        if isinstance(base, ast.Name) and base.id in views:
            yield self.finding(
                module, target.lineno,
                f"in-place write into zero-copy view {base.id!r}",
            )
        elif _view_receiver(base) is not None:
            yield self.finding(
                module, target.lineno,
                "in-place write directly into an arena view API result",
            )

    def _check_reads(self, module: ModuleInfo, stmt: ast.stmt, expr: ast.expr,
                     views: Dict[str, _ViewInfo], bound: Set[str]) -> Iterator:
        """Stale reads and lambda captures inside one owned expression."""
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                yield from self._check_capture(module, node, "<lambda>", views)
                continue
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in views and node.id not in bound):
                info = views[node.id]
                if info.stale_line:
                    verb = ("returned" if isinstance(stmt, ast.Return)
                            else "read")
                    yield self.finding(
                        module, node.lineno,
                        f"stale view {verb}: {node.id!r} (view of "
                        f"{info.receiver or 'a cache'} from line "
                        f"{info.bind_line}) is used after "
                        f"{info.receiver}.{info.mutator}() on line "
                        f"{info.stale_line} invalidated it",
                    )
            stack.extend(ast.iter_child_nodes(node))

    def _check_capture(self, module: ModuleInfo, func: ast.AST, name: str,
                       views: Dict[str, _ViewInfo]) -> Iterator:
        loads = {n.id for n in ast.walk(func)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for view_name in sorted(loads & set(views)):
            if views[view_name].escapes:
                yield self.finding(
                    module, func.lineno,
                    f"closure {name!r} captures zero-copy view {view_name!r}; "
                    f"it may run after the cache mutates, reading through a "
                    f"dangling alias",
                )

    @staticmethod
    def _apply_mutators(stmt: ast.stmt, views: Dict[str, _ViewInfo]) -> None:
        """Mark views stale when their receiver is mutated in ``stmt``."""
        receivers = {info.receiver for info in views.values()
                     if info.receiver and info.escapes}
        if not receivers:
            return
        for expr in owned_exprs(stmt):
            for node in ast.walk(expr):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATORS):
                    recv = dotted_name(node.func.value)
                    if recv in receivers:
                        for info in views.values():
                            if info.receiver == recv and not info.stale_line:
                                info.stale_line = node.lineno
                                info.mutator = node.func.attr

    def _apply_bindings(self, module: ModuleInfo, stmt: ast.stmt,
                        views: Dict[str, _ViewInfo]) -> Iterator:
        """Track new view bindings; flag stores of views onto ``self``."""
        pairs = []
        if isinstance(stmt, ast.Assign):
            pairs = [(t, stmt.value) for t in stmt.targets]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs = [(stmt.target, stmt.value)]
        for target, value in pairs:
            receiver = _view_receiver(value)
            if receiver is None and isinstance(value, ast.Name) and value.id in views:
                receiver = views[value.id].receiver
            attr = self_attr(target)
            if attr and receiver is not None and receiver != "self":
                yield self.finding(
                    module, stmt.lineno,
                    f"zero-copy view stored on self.{attr}: it "
                    f"outlives this call frame, and any later mutation of "
                    f"{receiver or 'the cache'} silently invalidates it",
                )
                continue
            for name in _target_names(target):
                if receiver is not None:
                    views[name] = _ViewInfo(receiver=receiver,
                                            bind_line=stmt.lineno)
                else:
                    views.pop(name, None)

    @staticmethod
    def _bound_names(stmt: ast.stmt) -> Set[str]:
        """Names (re)bound by this statement — their reads aren't stale."""
        if isinstance(stmt, ast.Assign):
            return {n for t in stmt.targets for n in _target_names(t)}
        if isinstance(stmt, (ast.AnnAssign, ast.For)):
            return set(_target_names(stmt.target))
        return set()
