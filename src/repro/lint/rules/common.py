"""Small AST helpers shared by the rule pack."""

from __future__ import annotations

import ast
from typing import Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None.

    Call nodes are not traversed: ``foo().bar`` yields None, because a
    chain broken by a call is no longer a static module reference.
    """
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def name_tail(dotted: str) -> Tuple[str, ...]:
    """The last two components of a dotted name."""
    return tuple(dotted.split(".")[-2:])


def is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def call_has_arguments(node: ast.Call) -> bool:
    return bool(node.args or node.keywords)
