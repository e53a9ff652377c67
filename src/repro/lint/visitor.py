"""Single-pass multi-rule AST visitor.

:class:`MultiRuleVisitor` walks a file's tree exactly once and fans
each node out to every rule that declared a ``visit_<NodeType>``
method for it.  This keeps lint time linear in file size regardless of
how many rules are enabled, which matters once the rule pack grows and
the linter runs on every commit.

Rules look downward from the node they are handed: RPL006 visits the
``list(...)``/``for`` that consumes a set, not the set, so no rule
needs a node's parent and the visitor keeps no parent map.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Sequence

from repro.lint.registry import BaseRule


class MultiRuleVisitor:
    """Dispatch one AST walk to many rules.

    Handlers are discovered by introspection at construction: any
    method on a rule named ``visit_<NodeType>`` is invoked for nodes of
    exactly that type (no MRO walking — a rule that wants both
    ``FunctionDef`` and ``AsyncFunctionDef`` declares both, as with
    :class:`ast.NodeVisitor`).
    """

    def __init__(self, rules: Sequence[BaseRule]) -> None:
        self._handlers: Dict[str, List[Callable[[ast.AST], None]]] = {}
        for r in rules:
            for name in dir(r):
                if not name.startswith("visit_"):
                    continue
                handler = getattr(r, name)
                if callable(handler):
                    node_name = name[len("visit_"):]
                    self._handlers.setdefault(node_name, []).append(handler)

    def run(self, node: ast.AST) -> None:
        """Visit ``node`` and every node under it, once."""
        for handler in self._handlers.get(type(node).__name__, ()):
            handler(node)
        for child in ast.iter_child_nodes(node):
            self.run(child)
