"""repgraph orchestration: parse once, build graph, run analyses.

``run_analysis`` is the whole-program sibling of
:func:`repro.lint.engine.run_lint` and reuses the same machinery on
the reporting side — :class:`~repro.lint.findings.Finding` objects,
inline ``# replint: disable=RPL10x`` pragmas, and a baseline file
(``[tool.replint] analysis_baseline``, default
``.repgraph-baseline.json``) — so the RPL1xx family drops into the
existing suppression workflow unchanged.

The pass order is fixed and each stage is wrapped in an obs span:
``analysis.parse`` (project + symbol tables), ``analysis.callgraph``,
``analysis.effects`` (fixpoints), ``analysis.rules`` (RPL101-104).
Output is a deterministic function of the analyzed sources: findings
sort by location, every collection in the report is sorted, and no
wall-clock or RNG is consumed anywhere in the analyzer itself.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.analysis.analyses import ANALYSES, clock, purity, rng
from repro.analysis.callgraph import CallGraph, MODULE_FN, build_call_graph
from repro.analysis.effects import EffectAnalysis
from repro.analysis.project import Project, load_project
from repro.lint.baseline import load_baseline, split_by_baseline
from repro.lint.config import LintConfig
from repro.lint.engine import apply_pragmas, pragma_map
from repro.lint.findings import Finding, Severity

ANALYSIS_VERSION = 1

_ANALYSIS_PASSES = (rng, clock, purity)


@dataclass
class AnalysisResult:
    """Outcome of one whole-program analysis run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    graph: Optional[CallGraph] = None
    project: Optional[Project] = None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


class _RuleContext:
    """What each analysis pass needs to mint findings."""

    def __init__(self, project: Project) -> None:
        self.project = project

    def path_of(self, qualname: str) -> Optional[str]:
        if qualname.endswith(f".{MODULE_FN}"):
            module = self.project.modules.get(
                qualname[: -len(f".{MODULE_FN}")]
            )
            return module.path if module else None
        info = self.project.functions.get(qualname)
        if info is not None:
            return info.path
        module = self.project.modules.get(qualname)
        return module.path if module else None

    def finding(
        self, code: str, path: str, line: int, message: str
    ) -> Finding:
        module = self.project.modules_by_path.get(path)
        text = ""
        if module is not None and 1 <= line <= len(module.lines):
            text = module.lines[line - 1].strip()
        return Finding(
            path=path,
            line=line,
            col=0,
            code=code,
            severity=Severity.ERROR,
            message=message,
            source_line=text,
        )


def _apply_exemptions(findings: Sequence[Finding]) -> List[Finding]:
    kept: List[Finding] = []
    for f in findings:
        exempt = ANALYSES.get(f.code, ("", ()))[1]
        if any(fnmatch.fnmatch(f.path, pat) for pat in exempt):
            continue
        kept.append(f)
    return kept


def _apply_file_pragmas(
    project: Project, findings: Sequence[Finding]
) -> List[Finding]:
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    for path in sorted(by_path):
        module = project.modules_by_path.get(path)
        pragmas = pragma_map(module.lines) if module is not None else {}
        kept.extend(apply_pragmas(by_path[path], pragmas))
    return kept


def collect_findings(
    project: Project, graph: CallGraph, effects: EffectAnalysis
) -> List[Finding]:
    """Every RPL1xx finding after exemptions and pragmas, sorted.

    Parse failures are included; baselines are not applied.
    """
    ctx = _RuleContext(project)
    findings: List[Finding] = list(project.parse_findings)
    with obs.span("analysis.rules"):
        for analysis_pass in _ANALYSIS_PASSES:
            findings.extend(analysis_pass.run(project, graph, effects, ctx))
    findings = _apply_exemptions(findings)
    findings = _apply_file_pragmas(project, findings)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def run_analysis(
    paths: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
    use_baseline: bool = True,
    baseline: Optional[Union[str, Dict[str, dict]]] = None,
) -> AnalysisResult:
    """Analyze ``paths`` (default: the configured analysis paths)."""
    cfg = config or LintConfig()
    targets = list(paths) if paths else list(cfg.analysis_paths)
    with obs.span("analysis.run", paths=",".join(targets)):
        with obs.span("analysis.parse"):
            project = load_project(
                cfg.root, targets, exclude=cfg.exclude
            )
        with obs.span("analysis.callgraph"):
            graph = build_call_graph(project)
        with obs.span("analysis.effects"):
            effects = EffectAnalysis(project, graph)
        findings = collect_findings(project, graph, effects)

        suppressions: Dict[str, dict] = {}
        if isinstance(baseline, dict):
            suppressions = baseline
        elif isinstance(baseline, str):
            suppressions = load_baseline(baseline)
        elif use_baseline:
            baseline_file = os.path.join(
                cfg.root, cfg.analysis_baseline_path
            )
            suppressions = load_baseline(baseline_file)
        fresh, suppressed = split_by_baseline(findings, suppressions)

        result = AnalysisResult(
            findings=fresh,
            baselined=suppressed,
            graph=graph,
            project=project,
            stats=_stats(project, graph, fresh, suppressed),
        )
        obs.gauge("analysis.modules").set(result.stats["modules"])
        obs.gauge("analysis.functions").set(result.stats["functions"])
        obs.gauge("analysis.call_edges").set(result.stats["call_edges"])
        for code in sorted({f.code for f in fresh}):
            obs.counter("analysis.findings", code=code).inc(
                sum(1 for f in fresh if f.code == code)
            )
        return result


def _stats(
    project: Project,
    graph: CallGraph,
    fresh: Sequence[Finding],
    suppressed: Sequence[Finding],
) -> Dict[str, int]:
    return {
        "files": len(project.modules_by_path),
        "modules": len(project.modules),
        "functions": len(project.functions),
        "classes": len(project.classes),
        "call_edges": len(graph.edges()),
        "fanout_sites": len(graph.fanouts),
        "resolved_calls": graph.resolved_calls,
        "unresolved_calls": graph.unresolved_calls,
        "new_findings": len(fresh),
        "baselined": len(suppressed),
    }
