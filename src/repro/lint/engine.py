"""The shared core of ``repro check``: read, parse, finish, result.

:func:`read_sources` is the one reader and :func:`parse_source` the
one parser: each file becomes a :class:`SourceFile`, or one RPL000
finding when it cannot be read or parsed.  The per-file rules (RPL00x)
walk the trees in :func:`file_findings`; the whole-program rules
(RPL1xx) run over the project :mod:`repro.analysis` indexes from the
same sources.  Tests lint in-memory fixtures through :func:`lint_source`
with a *pretend* path, which is how the paired good/bad fixtures
exercise path-scoped rules without temp files.

Raw findings of either family go through one finishing step,
:func:`finish`: the config (``disable``, scope, exempt, severity), then
inline pragmas — ``# replint: disable=RPL003`` on the offending line,
or ``disable`` with no codes to silence the line — then sorting and
the baseline file (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from repro import obs
from repro.lint.baseline import load_baseline, split_by_baseline
from repro.lint.config import LintConfig
from repro.lint.findings import PARSE_ERROR_CODE, Finding, Severity, finding_at
from repro.lint.registry import LintRuleError, all_rules
from repro.lint.visitor import MultiRuleVisitor

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.project import Project

_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]+))?"
)

_ALL_CODES = "__all__"


@dataclass
class CheckResult:
    """Outcome of one run of one rule family or both.

    ``stats``, ``graph`` and ``project`` are filled only when the
    whole-program family ran.
    """

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    graph: Optional["CallGraph"] = None
    project: Optional["Project"] = None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


@dataclass(frozen=True)
class SourceFile:
    """One file as every rule family sees it."""

    path: str
    lines: List[str]
    tree: Optional[ast.Module]  # None when the file does not parse


def parse_source(path: str, text: str) -> Tuple[SourceFile, Optional[Finding]]:
    """The one parser.  A file that does not parse keeps its lines, gets
    no tree, and comes back with its RPL000 finding."""
    norm = path.replace("\\", "/")
    lines = text.splitlines()
    try:
        return SourceFile(norm, lines, ast.parse(text, filename=norm)), None
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # Not just SyntaxError: null bytes raise ValueError on some
        # interpreters, and pathologically nested expressions exhaust
        # the parser's recursion/memory limits.  One broken file must
        # become a structured finding, not kill the whole run.
        line = getattr(exc, "lineno", None) or 1
        col = (getattr(exc, "offset", None) or 1) - 1
        msg = getattr(exc, "msg", None) or str(exc) or type(exc).__name__
        failure = finding_at(
            norm, lines, line, col, PARSE_ERROR_CODE, Severity.ERROR,
            f"file does not parse: {msg}",
        )
        return SourceFile(norm, lines, None), failure


def read_sources(
    root: str, files: Sequence[str]
) -> Tuple[List[SourceFile], List[Finding]]:
    """The one reader: every file of ``files`` (relative to ``root``)
    that could be read, and one RPL000 per file unreadable or unparsable."""
    base = os.path.abspath(root)
    sources: List[SourceFile] = []
    failures: List[Finding] = []
    for rel in files:
        try:
            with open(os.path.join(base, rel), "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(
                finding_at(
                    rel, (), 1, 0, PARSE_ERROR_CODE, Severity.ERROR,
                    f"cannot read file: {exc}",
                )
            )
            continue
        source, failure = parse_source(rel, text)
        sources.append(source)
        if failure is not None:
            failures.append(failure)
    return sources, failures


def pragma_map(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Line number -> codes disabled on that line."""
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


def suppressions_for(
    config: LintConfig, use_baseline: bool
) -> Dict[str, dict]:
    """The configured baseline file's suppressions when ``use_baseline``."""
    if use_baseline:
        return load_baseline(os.path.join(config.root, config.baseline_path))
    return {}


def finish(
    findings: Iterable[Finding],
    config: LintConfig,
    lines: Mapping[str, Sequence[str]],
    suppressions: Dict[str, dict],
) -> Tuple[List[Finding], List[Finding]]:
    """The one finishing step: the config, then the pragmas of each file
    (``lines`` maps a path to its lines), then ``(new, baselined)``."""
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        if not config.applies(f.code, f.path):
            continue
        severity = config.override_for(f.code).severity
        if severity is not None:
            f = replace(f, severity=severity)
        by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    for path, found in by_path.items():
        kept.extend(apply_pragmas(found, pragma_map(lines.get(path, ()))))
    # split_by_baseline numbers and sorts them by location.
    return split_by_baseline(kept, suppressions)


def file_findings(
    sources: Iterable[SourceFile], config: LintConfig
) -> List[Finding]:
    """Raw findings of the per-file rules (RPL00x): each file's applying
    rules share one walk of its tree."""
    per_file = [cls for cls in all_rules() if not cls.whole_program]
    findings: List[Finding] = []
    for source in sources:
        if source.tree is None:
            continue
        rules = [
            cls(source.path, source.lines, findings.append)
            for cls in per_file
            if config.applies(cls.code, source.path)
        ]
        if rules:
            MultiRuleVisitor(rules).run(source.tree)
    return findings


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    Returns the per-file rules' findings after the config and pragmas
    (but before any baseline — baselines belong to whole-tree runs).
    """
    cfg = config or LintConfig()
    parsed, failure = parse_source(path, source)
    raw = [failure] if failure is not None else file_findings([parsed], cfg)
    return finish(raw, cfg, {parsed.path: parsed.lines}, {})[0]


def collect_files(
    paths: Sequence[str], config: LintConfig
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` paths.

    Paths are returned relative to ``config.root`` in posix form —
    the same shape rule scopes, pragmas, and baselines key on.

    Every path is canonicalized (``realpath``) before deduplication,
    so overlapping arguments (``src src/repro``), ``..`` detours, and
    symlinked aliases of the same tree each lint a file exactly once
    instead of emitting duplicate findings.  A path that does not exist
    raises :class:`LintRuleError` naming it.
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
        if not os.path.isdir(abs_path):
            raise LintRuleError(f"no such file or directory: {path}")
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
) -> CheckResult:
    """The per-file rules (RPL00x) over ``paths``.

    ``paths`` defaults to the configured paths.  With ``use_baseline``
    the configured baseline file is loaded when it exists.  The result
    keeps no trees.
    """
    cfg = config or LintConfig()
    targets = list(paths) if paths else list(cfg.paths)
    raw: List[Finding] = []
    lines: Dict[str, List[str]] = {}
    with obs.span("lint.run", paths=",".join(targets)):
        # One file at a time, so one tree is alive at a time: holding
        # every tree to the end makes the cyclic GC cost ~10% more.
        for rel in collect_files(targets, cfg):
            sources, failures = read_sources(cfg.root, [rel])
            raw += failures + file_findings(sources, cfg)
            lines.update((source.path, source.lines) for source in sources)
        obs.counter("lint.files").inc(len(lines))
    fresh, baselined = finish(
        raw, cfg, lines, suppressions_for(cfg, use_baseline)
    )
    return CheckResult(fresh, baselined, files_checked=len(lines))
