"""RPL103: interprocedural clock taint into persisted output.

Two detectors, both reported under one code:

* **Reachability** — every function transitively called while
  computing a figure, a report payload, or a ``save``/``write_*``/
  ``to_json`` output is part of the pipeline's deterministic surface;
  a wall-clock read anywhere in that set leaks the run time into the
  output.  This subsumes the per-file RPL002 rule across call and
  module boundaries — including files RPL002 structurally exempts
  (``cli.py``, benchmarks) when their values flow back into payloads.
* **Flow** — a value derived from a wall-clock read (through any
  number of returns) that lands in a ``json.dump``/``json.dumps``
  argument is flagged at the sink call.

Findings are reported at the offending source line with a
deterministic shortest witness path from the nearest output root.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.callgraph import CallGraph
from repro.analysis.effects import EffectAnalysis
from repro.analysis.project import Project

#: Decorators that mark a function as a figure/table producer.
FIGURE_DECORATORS = ("repro.figures.figure",)

#: Bare function names treated as output roots.
SINK_NAMES = frozenset(
    {"save", "to_json", "to_dict", "snapshot_payload", "build_report"}
)
SINK_PREFIXES = ("write_", "export_")


def sink_roots(project: Project) -> List[str]:
    """Functions whose output is part of the deterministic surface."""
    roots: List[str] = []
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if any(
            d in FIGURE_DECORATORS or d.endswith(".figure")
            for d in info.decorators
        ):
            roots.append(qualname)
            continue
        if info.name in SINK_NAMES or info.name.startswith(SINK_PREFIXES):
            roots.append(qualname)
    return roots


def run(project: Project, graph: CallGraph, effects: EffectAnalysis):
    findings: List = []
    roots = sink_roots(project)
    reachable = graph.reachable_from(roots)
    # Deterministic nearest-root witness: roots in sorted order, first
    # root with a path wins.
    witness_cache: Dict[str, Optional[str]] = {}

    def witness(target: str) -> str:
        if target in witness_cache:
            return witness_cache[target] or ""
        for root in roots:
            path = graph.shortest_path(root, target)
            if path is not None:
                rendered = " -> ".join(path)
                witness_cache[target] = rendered
                return rendered
        witness_cache[target] = None
        return ""

    seen = set()
    for qualname in sorted(reachable):
        direct = effects.direct.get(qualname)
        if direct is None or not direct.clock_sites:
            continue
        path = project.path_of(qualname)
        if path is None:
            continue
        for _, line, call in sorted(direct.clock_sites):
            key = (path, line)
            if key in seen:
                continue
            seen.add(key)
            chain = witness(qualname)
            via = f" (reached via {chain})" if chain else ""
            findings.append(
                project.finding(
                    "RPL103",
                    path,
                    line,
                    f"{call}() is reachable from figure/report output"
                    f"{via}; the run's wall-clock leaks into persisted "
                    "results — derive times from snapshot dates or an "
                    "injected clock",
                )
            )
    for qualname, line, detail in effects.json_sink_sites:
        path = project.path_of(qualname)
        if path is None:
            continue
        key = (path, line)
        if key in seen:
            continue
        seen.add(key)
        findings.append(
            project.finding(
                "RPL103",
                path,
                line,
                f"wall-clock-derived value flows into a {detail} in "
                f"{qualname}; persisted output now depends on when the "
                "run happened",
            )
        )
    return findings
