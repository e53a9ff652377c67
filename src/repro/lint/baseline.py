"""Baseline suppression: freeze pre-existing findings, fail on new ones.

A baseline is a JSON file mapping finding fingerprints (see
:meth:`repro.lint.findings.Finding.fingerprint`) to a human-readable
record of what was suppressed.  Fingerprints hash the file path, rule
code, stripped source line, and an occurrence index — never the line
number — so edits elsewhere in a file do not invalidate the baseline,
while *touching the offending line itself* does (which is the point:
if you edit the line, fix it).

One baseline file (``[tool.replint] baseline``) serves both rule
families.  The repo's policy is an **empty** baseline — every finding
was fixed at the source — but the mechanism ships so future rules can
land without a flag-day cleanup.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, Iterable, List, Tuple

from repro.lint.findings import Finding
from repro.lint.registry import LintRuleError

BASELINE_VERSION = 1


def assign_occurrences(findings: Iterable[Finding]) -> List[Finding]:
    """Number identical (path, code, source_line) findings in order.

    Two violations of the same rule on byte-identical lines in one
    file would otherwise share a fingerprint; the occurrence index
    keeps them distinct so baselining one does not hide the other.
    """
    counters: Dict[Tuple[str, str, str], int] = {}
    out: List[Finding] = []
    for f in sorted(findings, key=lambda f: f.sort_key()):
        key = (f.path, f.code, f.source_line)
        index = counters.get(key, 0)
        counters[key] = index + 1
        out.append(replace(f, occurrence=index))
    return out


def load_baseline(path: str) -> Dict[str, dict]:
    """Fingerprint -> record map; empty when the file does not exist."""
    if not os.path.isfile(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError covers bytes that are not UTF-8, invalid JSON and an
    # integer past the interpreter's digit limit; RecursionError,
    # nesting past the decoder's depth.
    except (OSError, ValueError, RecursionError) as exc:
        raise LintRuleError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or "suppressions" not in data:
        raise LintRuleError(
            f"baseline {path} is not a replint baseline file"
        )
    suppressions = data["suppressions"]
    if not isinstance(suppressions, dict):
        raise LintRuleError(f"baseline {path} has a malformed suppressions map")
    return suppressions


def write_baseline(path: str, findings: Iterable[Finding]) -> int:
    """Snapshot ``findings`` as the new baseline; returns the count."""
    numbered = assign_occurrences(findings)
    suppressions = {
        f.fingerprint(): {
            "path": f.path,
            "code": f.code,
            "source_line": f.source_line,
            "occurrence": f.occurrence,
        }
        for f in numbered
    }
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "replint baseline: pre-existing findings suppressed from CI. "
            "Regenerate with `repro check --baseline`; prefer fixing over "
            "baselining."
        ),
        "suppressions": suppressions,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(suppressions)


def split_by_baseline(
    findings: Iterable[Finding], baseline: Dict[str, dict]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition into (new, baselined) against a suppression map."""
    fresh: List[Finding] = []
    suppressed: List[Finding] = []
    for f in assign_occurrences(findings):
        if f.fingerprint() in baseline:
            suppressed.append(f)
        else:
            fresh.append(f)
    return fresh, suppressed
