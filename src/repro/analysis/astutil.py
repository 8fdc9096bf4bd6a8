"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

__all__ = ["dotted_name", "dotted_tail", "walk_functions", "call_name",
           "self_attr", "short_name", "flat_statements", "owned_exprs"]

#: Statement fields holding child blocks (not the statement's own exprs).
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None.

    Call nodes inside the chain break it (``f().x`` has no static dotted
    name), which is the conservative behaviour every rule wants.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_tail(node: ast.AST, n: int = 2) -> Optional[str]:
    """Last ``n`` components of the chain (``time.time`` from ``t.time.time``)."""
    name = dotted_name(node)
    if name is None:
        return None
    return ".".join(name.split(".")[-n:])


def call_name(node: ast.Call) -> Optional[str]:
    """Trailing identifier of the called function (``foo`` for ``a.b.foo()``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def self_attr(node: ast.AST) -> str:
    """Attribute name when ``node`` is ``self.<attr>``, else ''."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return ""


def short_name(qname: str) -> str:
    """Trailing ``Class.method`` (or bare name) of a qualified name."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname


def walk_functions(tree: ast.AST) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function in it."""
    if isinstance(tree, ast.Module):
        yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def flat_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one scope in source order, descending into control flow.

    Nested function/class definitions are yielded but not entered: their
    bodies are scopes of their own.
    """
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        blocks = [getattr(stmt, "body", None), getattr(stmt, "orelse", None),
                  getattr(stmt, "finalbody", None)]
        blocks += [h.body for h in getattr(stmt, "handlers", ()) or ()]
        blocks += [c.body for c in getattr(stmt, "cases", ()) or ()]
        for block in reversed([b for b in blocks if b]):
            stack.extend(reversed(block))


def owned_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions directly owned by ``stmt`` (child blocks excluded).

    ``with`` items contribute their context expressions.
    """
    for fname, value in ast.iter_fields(stmt):
        if fname in _BLOCK_FIELDS:
            continue
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, ast.expr):
                yield v
            elif isinstance(v, ast.withitem):
                yield v.context_expr
