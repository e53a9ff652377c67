"""The ``repro check`` report: human text, versioned JSON, graph artifact.

The JSON report is the CI contract: ``version`` pins the shape,
``summary.new_errors`` is the gate, and the whole document is a
deterministic function of the checked sources — every collection is
sorted and nothing derives from the wall clock, so two runs over the
same tree are byte-identical (the golden tests pin exactly that).
"""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.engine import CheckResult
from repro.lint.registry import all_rules

REPORT_VERSION = 2


def format_text(result: CheckResult) -> str:
    lines = [f.format() for f in result.findings]
    error_count = len(result.errors)
    warning_count = len(result.findings) - error_count
    summary = (
        f"{result.files_checked} files checked: "
        f"{error_count} error(s), {warning_count} warning(s)"
    )
    if result.baselined:
        summary += f", {len(result.baselined)} baselined"
    stats = result.stats
    if stats:
        summary += (
            f"; {stats['modules']} modules, "
            f"{stats['functions']} functions, "
            f"{stats['call_edges']} call edges, "
            f"{stats['fanout_sites']} fan-out sites"
        )
    if not result.findings and not result.baselined:
        summary += " — clean"
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: CheckResult) -> str:
    by_code: Dict[str, int] = {}
    for f in result.findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    payload = {
        "version": REPORT_VERSION,
        "rules": {cls.code: cls.description for cls in all_rules()},
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "summary": {
            **result.stats,
            "files_checked": result.files_checked,
            "new_findings": len(result.findings),
            "new_errors": len(result.errors),
            "baselined": len(result.baselined),
            "findings_by_code": by_code,
            "ok": result.ok,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def graph_json(result: CheckResult) -> str:
    """The ``--graph-out`` artifact: the resolved call graph."""
    payload = {"version": REPORT_VERSION}
    if result.graph is not None:
        payload.update(result.graph.to_dict())
    return json.dumps(payload, indent=2, sort_keys=True)
