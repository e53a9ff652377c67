"""repgraph: whole-program determinism analysis (``repro analyze``).

Where :mod:`repro.lint` proves per-file, per-AST-node invariants,
this package proves the *cross-module* ones that gate parallelizing
the pipeline: it parses all analyzed sources once, builds a
project-wide symbol table and call graph (imports resolved, methods
bound through a class-hierarchy pass), runs effect/taint fixpoints
over the graph, and reports through the same findings / pragma /
baseline machinery as replint under the RPL1xx family:

=========  =======================================================
RPL101     unseeded RNG origin (whole-program provenance)
RPL102     RNG stream shared across a parallel fan-out boundary
RPL103     wall-clock value reaches figure/report output
           (interprocedural clock taint)
RPL104     impure worker / mutated capture crosses a pool boundary
=========  =======================================================

Public API::

    from repro.analysis import run_analysis

    result = run_analysis(["src"])   # AnalysisResult
    print(result.ok, result.stats["call_edges"])

``repro analyze`` exposes the same run on the CLI with ``--format
json|text``, ``--baseline``, ``--graph-out`` and exit code 1 on any
non-baselined violation.
"""

from __future__ import annotations

from repro.analysis.analyses import ANALYSES
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.effects import EffectAnalysis, Effects
from repro.analysis.engine import (
    ANALYSIS_VERSION,
    AnalysisResult,
    collect_findings,
    run_analysis,
)
from repro.analysis.project import Project, load_project
from repro.analysis.report import format_json, format_text, graph_json

__all__ = [
    "ANALYSES",
    "ANALYSIS_VERSION",
    "AnalysisResult",
    "CallGraph",
    "EffectAnalysis",
    "Effects",
    "Project",
    "build_call_graph",
    "collect_findings",
    "format_json",
    "format_text",
    "graph_json",
    "load_project",
    "run_analysis",
]
