"""Rule base class and registry.

A rule is a class with a unique ``code`` (``RPLnnn``), a default
severity, a one-line description, and optional path scoping.  Both
families register here, the per-file rules (RPL00x) and the
whole-program ones (RPL1xx), so config, reports and scoping know every
code from one table.  Per-file rules declare interest in AST node
types by defining ``visit_<NodeType>`` methods — the visitor framework
discovers them by introspection, so a rule never subclasses
:class:`ast.NodeVisitor` and the whole rule pack runs in a single pass
over each file's tree.

Registering is one decorator::

    @rule
    class NoFrobnication(BaseRule):
        code = "RPL042"
        description = "frobnication is non-deterministic"

        def visit_Call(self, node):
            ...
            self.report(node, "do not frobnicate here")
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Sequence, Tuple, Type

from repro.errors import ReproError
from repro.lint.findings import Finding, Severity, finding_at


class LintRuleError(ReproError):
    """A rule or the lint configuration is malformed."""


class BaseRule:
    """Base class for all rules.

    Subclasses set the class attributes and implement ``visit_*``
    methods.  One instance is created per checked file, with the file's
    ``path`` and ``lines``; :meth:`report` sends a finding at a node's
    location to ``sink``.

    ``scope`` is a tuple of ``fnmatch`` glob patterns; empty means the
    rule applies to every file.  ``exempt`` patterns carve files out of
    an otherwise matching scope (e.g. CLI entry points for the
    wall-clock rule).  Both can be overridden per-rule from
    ``pyproject.toml`` (see :meth:`repro.lint.config.LintConfig.applies`).

    A ``whole_program`` rule (RPL1xx) registers only its metadata: it
    has no ``visit_*`` methods, and :mod:`repro.analysis` finds its
    violations over the whole project instead of one tree at a time.
    """

    code: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()
    whole_program: bool = False

    def __init__(
        self, path: str, lines: Sequence[str], sink: Callable[[Finding], None]
    ) -> None:
        self.path = path
        self.lines = lines
        self._sink = sink

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self._sink(
            finding_at(
                self.path, self.lines, line, col, self.code, self.severity,
                message,
            )
        )


_REGISTRY: Dict[str, Type[BaseRule]] = {}


def rule(cls: Type[BaseRule]) -> Type[BaseRule]:
    """Class decorator: register a rule under its ``code``."""
    if not cls.code:
        raise LintRuleError(f"{cls.__name__} has no rule code")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise LintRuleError(f"duplicate rule code {cls.code}")
    if not cls.description:
        raise LintRuleError(f"{cls.code} has no description")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Type[BaseRule]]:
    """Every registered rule class, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Type[BaseRule]:
    try:
        return _REGISTRY[code]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise LintRuleError(
            f"unknown rule code {code!r}; known: {known}"
        ) from None
