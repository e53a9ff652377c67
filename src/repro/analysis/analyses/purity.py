"""RPL104: impure workers crossing process-pool boundaries.

Purity/effect inference marks every function with the shared state it
(transitively) writes: module globals rebound or mutated in place,
and closure captures mutated through ``nonlocal`` or mutating method
calls.  A callable with a non-empty write set submitted to a pool is a
static race-to-nondeterminism: under threads the writes interleave,
under processes they silently diverge per worker, and either way the
result depends on scheduling.  Workers must be pure functions of their
arguments (per-process memo caches built from pure functions of the
arguments — ``functools.lru_cache`` — are recognized as safe).

Lambdas submitted to a pool are checked for captured-state mutation
directly; a lambda that only closes over read-only values passes.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.callgraph import CallGraph
from repro.analysis.effects import EffectAnalysis, _MUTATING_METHODS
from repro.analysis.project import Project


def _lambda_mutations(node: ast.Lambda) -> List[str]:
    """Captured names a lambda body mutates via method calls."""
    params = {a.arg for a in node.args.args + node.args.kwonlyargs}
    if node.args.vararg:
        params.add(node.args.vararg.arg)
    if node.args.kwarg:
        params.add(node.args.kwarg.arg)
    out = []
    for sub in ast.walk(node.body):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id not in params
        ):
            out.append(func.value.id)
    return sorted(set(out))


def run(project: Project, graph: CallGraph, effects: EffectAnalysis):
    findings: List = []
    for site in sorted(
        graph.fanouts, key=lambda s: (s.path, s.line, s.worker or "")
    ):
        if site.worker is None:
            continue
        if site.worker == "<lambda>":
            if site.lambda_node is None:
                continue
            for name in _lambda_mutations(site.lambda_node):
                findings.append(
                    project.finding(
                        "RPL104",
                        site.path,
                        site.line,
                        f"lambda submitted to {site.pool} mutates "
                        f"captured {name!r}; worker results now depend "
                        "on scheduling order — pass state in, return "
                        "results out, merge deterministically",
                    )
                )
            continue
        summary = effects.effects_of(site.worker)
        for symbol, writer in sorted(summary.writes_global):
            where = f" (in {writer})" if writer != site.worker else ""
            findings.append(
                project.finding(
                    "RPL104",
                    site.path,
                    site.line,
                    f"worker {site.worker} submitted to {site.pool} "
                    f"writes shared module state {symbol}{where}; "
                    "execution order leaks into results — make the "
                    "worker a pure function of its arguments (a "
                    "functools.lru_cache over a pure builder is the "
                    "sanctioned per-process cache)",
                )
            )
        for name, writer in sorted(summary.mutates_capture):
            where = f" (in {writer})" if writer != site.worker else ""
            findings.append(
                project.finding(
                    "RPL104",
                    site.path,
                    site.line,
                    f"worker {site.worker} submitted to {site.pool} "
                    f"mutates captured {name!r}{where}; shared closure "
                    "state across workers is a scheduling-order race",
                )
            )
    return findings
