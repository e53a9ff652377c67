"""Lint orchestration: collect files, run rules, apply suppressions.

The engine is the only module that touches the filesystem.  Rules see
source text and an AST; tests lint in-memory fixtures through
:func:`lint_source` with a *pretend* path, which is how the paired
good/bad fixtures exercise path-scoped rules without temp files.

Suppression has three layers, applied in order:

1. rule scoping (a rule only runs where its invariant lives),
2. inline pragmas — ``# replint: disable=RPL003`` on the offending
   line (or ``disable`` with no codes to silence the line entirely),
3. the baseline file (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro import obs
from repro.lint.baseline import load_baseline, split_by_baseline
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.registry import BaseRule, all_rules
from repro.lint.visitor import MultiRuleVisitor

PARSE_ERROR_CODE = "RPL000"

_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]+))?"
)

_ALL_CODES = "__all__"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def pragma_map(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Line number -> codes disabled on that line.

    Public because the whole-program analyzer (:mod:`repro.analysis`)
    honors the same inline pragmas for its RPL1xx findings.
    """
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            pragmas[lineno] = {_ALL_CODES}
        else:
            pragmas[lineno] = {
                code.strip().upper()
                for code in codes.split(",")
                if code.strip()
            }
    return pragmas


def apply_pragmas(
    findings: Sequence[Finding], pragmas: Dict[int, Set[str]]
) -> List[Finding]:
    """Drop findings whose line disables their code (or all codes)."""
    if not pragmas:
        return list(findings)
    kept: List[Finding] = []
    for f in findings:
        disabled = pragmas.get(f.line, set())
        if _ALL_CODES in disabled or f.code in disabled:
            continue
        kept.append(f)
    return kept


def _rules_for(path: str, config: LintConfig) -> List[BaseRule]:
    """Instantiate every enabled rule whose scope covers ``path``."""
    instances: List[BaseRule] = []
    for cls in all_rules():
        if not config.rule_enabled(cls.code):
            continue
        override = config.override_for(cls.code)
        exempt = tuple(cls.exempt) + tuple(override.exempt)
        if not cls.applies_to(path, scope=override.scope, exempt=exempt):
            continue
        instance = cls()
        if override.severity is not None:
            instance.severity = override.severity
        instances.append(instance)
    return instances


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    Returns findings after scoping and pragma suppression (but before
    any baseline — baselines belong to whole-tree runs).
    """
    cfg = config or LintConfig()
    norm = path.replace("\\", "/")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=norm)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # Not just SyntaxError: null bytes raise ValueError on some
        # interpreters, and pathologically nested expressions exhaust
        # the parser's recursion/memory limits.  One broken file must
        # become a structured finding, not kill the whole run.
        lineno = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 1
        msg = getattr(exc, "msg", None) or str(exc) or type(exc).__name__
        text = getattr(exc, "text", None) or ""
        return [
            Finding(
                path=norm,
                line=lineno,
                col=offset - 1,
                code=PARSE_ERROR_CODE,
                severity=Severity.ERROR,
                message=f"file does not parse: {msg}",
                source_line=text.strip(),
            )
        ]
    rules = _rules_for(norm, cfg)
    if not rules:
        return []
    findings: List[Finding] = []
    visitor = MultiRuleVisitor(rules)
    visitor.run(tree, norm, lines, findings.append)
    findings = apply_pragmas(findings, pragma_map(lines))
    return sorted(findings, key=lambda f: f.sort_key())


def collect_files(
    paths: Sequence[str], config: LintConfig
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` paths.

    Paths are returned relative to ``config.root`` in posix form —
    the same shape rule scopes, pragmas, and baselines key on.

    Every path is canonicalized (``realpath``) before deduplication,
    so overlapping arguments (``src src/repro``), ``..`` detours, and
    symlinked aliases of the same tree each lint a file exactly once
    instead of emitting duplicate findings.
    """
    root = os.path.realpath(os.path.abspath(config.root))
    seen: Set[str] = set()
    out: List[str] = []

    def add(abs_path: str) -> None:
        real = os.path.realpath(abs_path)
        if real in seen:
            return
        rel = os.path.relpath(real, root).replace(os.sep, "/")
        if any(fnmatch.fnmatch(rel, pat) for pat in config.exclude):
            return
        seen.add(real)
        out.append(rel)

    for path in paths:
        abs_path = (
            path if os.path.isabs(path) else os.path.join(root, path)
        )
        abs_path = os.path.realpath(abs_path)
        if os.path.isfile(abs_path):
            add(abs_path)
            continue
        for dirpath, dirnames, filenames in os.walk(abs_path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    add(os.path.join(dirpath, filename))
    return sorted(out)


def run_lint(
    paths: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
    use_baseline: bool = True,
    baseline: Optional[Union[str, Dict[str, dict]]] = None,
) -> LintResult:
    """Lint ``paths`` (default: the configured paths) under ``config``.

    ``baseline`` may be a suppression map or a file path; by default
    the configured baseline file is loaded when it exists.
    """
    cfg = config or LintConfig()
    targets = list(paths) if paths else list(cfg.paths)
    result = LintResult()
    all_findings: List[Finding] = []
    with obs.span("lint.run", paths=",".join(targets)):
        for rel in collect_files(targets, cfg):
            abs_path = os.path.join(os.path.abspath(cfg.root), rel)
            try:
                with open(abs_path, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                all_findings.append(
                    Finding(
                        path=rel,
                        line=1,
                        col=0,
                        code=PARSE_ERROR_CODE,
                        severity=Severity.ERROR,
                        message=f"cannot read file: {exc}",
                    )
                )
                continue
            result.files_checked += 1
            all_findings.extend(lint_source(source, rel, cfg))
        obs.counter("lint.files").inc(result.files_checked)
    suppressions: Dict[str, dict] = {}
    if isinstance(baseline, dict):
        suppressions = baseline
    elif isinstance(baseline, str):
        suppressions = load_baseline(baseline)
    elif use_baseline:
        baseline_file = os.path.join(cfg.root, cfg.baseline_path)
        suppressions = load_baseline(baseline_file)
    fresh, suppressed = split_by_baseline(all_findings, suppressions)
    result.findings = fresh
    result.baselined = suppressed
    return result
