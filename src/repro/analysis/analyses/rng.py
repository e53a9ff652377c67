"""RNG-stream tracking: RPL101 (unseeded origins) and RPL102 (shared
streams across fan-out boundaries).

Every ``random.Random`` / ``numpy`` generator construction gets a
provenance (which function built it, seeded or not).  Module-global
streams are tracked by symbol; if any function transitively reachable
from a pool-submitted worker touches one, the stream is consumed on
the far side of a ``--jobs`` fan-out without a per-unit
``SeedSequence.spawn`` — the exact cross-module sharing bug the
per-file RPL001 rule cannot see (the construction site is seeded and
lives in a different file from the pool).
"""

from __future__ import annotations

from typing import List

from repro.analysis.callgraph import CallGraph
from repro.analysis.effects import EffectAnalysis
from repro.analysis.project import Project


def run(project: Project, graph: CallGraph, effects: EffectAnalysis):
    findings: List = []
    # -- RPL101: unseeded origins, whole tree ---------------------------
    for qualname in sorted(effects.direct):
        direct = effects.direct[qualname]
        path = project.path_of(qualname)
        if path is None:
            continue
        for line, ctor, seeded in sorted(direct.rng_origins):
            if seeded:
                continue
            findings.append(
                project.finding(
                    "RPL101",
                    path,
                    line,
                    f"{ctor}() constructed without an explicit seed in "
                    f"{qualname}; every stream must derive from the run "
                    "seed (thread a seed or SeedSequence child through "
                    "the call chain)",
                )
            )
    # -- RPL102: streams crossing fan-out boundaries --------------------
    for site in sorted(
        graph.fanouts, key=lambda s: (s.path, s.line, s.worker or "")
    ):
        if not site.worker or site.worker == "<lambda>":
            continue
        summary = effects.effects_of(site.worker)
        for symbol, user in sorted(summary.rng_uses):
            origin = project.rng_symbols().get(symbol)
            seeded = " (seeded at construction)" if origin and origin.seeded else ""
            via = (
                f" via {user}" if user != site.worker else ""
            )
            findings.append(
                project.finding(
                    "RPL102",
                    site.path,
                    site.line,
                    f"worker {site.worker} submitted to {site.pool} "
                    f"consumes shared RNG stream {symbol}{seeded}{via}; "
                    "draws depend on scheduling order — spawn one "
                    "SeedSequence child per unit of work instead",
                )
            )
    return findings
