"""repgraph orchestration and ``repro check``: parse once, run the rules.

:func:`run_analysis` runs the whole-program family (RPL1xx) alone;
:func:`run_check` runs both families over one parse: the project's
trees feed the per-file rules first, then the call graph, the effect
fixpoints and the RPL1xx passes.  Either way the raw findings go
through the one finishing step, :func:`repro.lint.engine.finish`, so
``[tool.replint]``, inline pragmas and the one baseline file treat
every code alike.

The pass order is fixed and each stage is wrapped in an obs span:
``analysis.parse`` (reading, parsing and the symbol tables),
``analysis.callgraph``, ``analysis.effects`` (fixpoints),
``analysis.rules`` (RPL101-104).  Output is a deterministic function
of the analyzed sources: findings sort by location, every collection
in the report is sorted, and no wall-clock or RNG is consumed anywhere
in the analyzer itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.analysis.analyses import clock, purity, rng
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.effects import EffectAnalysis
from repro.analysis.project import Project, load_project
from repro.lint.config import LintConfig
from repro.lint.engine import (
    CheckResult, file_findings, finish, suppressions_for,
)
from repro.lint.findings import Finding

_ANALYSIS_PASSES = (rng, clock, purity)


def collect_findings(
    project: Project, graph: CallGraph, effects: EffectAnalysis
) -> List[Finding]:
    """Every raw RPL1xx finding of the passes, in pass order.

    The config, pragmas and baseline are left to the finishing step.
    """
    findings: List[Finding] = []
    for analysis_pass in _ANALYSIS_PASSES:
        findings.extend(analysis_pass.run(project, graph, effects))
    return findings


def _whole_program(
    project: Project,
    raw: List[Finding],
    cfg: LintConfig,
    use_baseline: bool,
) -> CheckResult:
    """Run the RPL1xx family over ``project``, then finish its findings
    together with ``raw`` (the per-file ones, if that family ran)."""
    with obs.span("analysis.callgraph"):
        graph = build_call_graph(project)
    with obs.span("analysis.effects"):
        effects = EffectAnalysis(project, graph)
    with obs.span("analysis.rules"):
        program = collect_findings(project, graph, effects)
    fresh, baselined = finish(
        raw + project.parse_findings + program,
        cfg,
        {source.path: source.lines for source in project.sources},
        suppressions_for(cfg, use_baseline),
    )
    result = CheckResult(
        fresh,
        baselined,
        files_checked=len(project.sources),
        stats=_stats(project, graph),
        graph=graph,
        project=project,
    )
    obs.gauge("analysis.modules").set(result.stats["modules"])
    obs.gauge("analysis.functions").set(result.stats["functions"])
    obs.gauge("analysis.call_edges").set(result.stats["call_edges"])
    for code in sorted({f.code for f in fresh}):
        obs.counter("analysis.findings", code=code).inc(
            sum(1 for f in fresh if f.code == code)
        )
    return result


def run_analysis(
    paths: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
    use_baseline: bool = True,
) -> CheckResult:
    """The whole-program rules (RPL1xx) over ``paths``.

    ``paths`` and ``use_baseline`` work as in
    :func:`repro.lint.engine.run_lint`.
    """
    cfg = config or LintConfig()
    targets = list(paths) if paths else list(cfg.paths)
    with obs.span("analysis.run", paths=",".join(targets)):
        with obs.span("analysis.parse"):
            project = load_project(cfg.root, targets, exclude=cfg.exclude)
        return _whole_program(project, [], cfg, use_baseline)


def run_check(
    paths: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
    use_baseline: bool = True,
) -> CheckResult:
    """Both rule families over ``paths``, each file read and parsed once.

    Takes the same arguments as :func:`run_analysis`.  The per-file
    rules walk the trees the project indexed; then the whole-program
    passes run.
    """
    cfg = config or LintConfig()
    targets = list(paths) if paths else list(cfg.paths)
    with obs.span("check.run", paths=",".join(targets)):
        with obs.span("analysis.parse"):
            project = load_project(cfg.root, targets, exclude=cfg.exclude)
        with obs.span("lint.rules"):
            raw = file_findings(project.sources, cfg)
        obs.counter("lint.files").inc(len(project.sources))
        return _whole_program(project, raw, cfg, use_baseline)


def _stats(project: Project, graph: CallGraph) -> Dict[str, int]:
    return {
        "modules": len(project.modules),
        "functions": len(project.functions),
        "classes": len(project.classes),
        "call_edges": len(graph.edges()),
        "fanout_sites": len(graph.fanouts),
        "resolved_calls": graph.resolved_calls,
        "unresolved_calls": graph.unresolved_calls,
    }
