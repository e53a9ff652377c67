"""Finding and severity types shared by every rule and reporter."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence

#: The code of a file that cannot be read or parsed.  It belongs to no
#: rule: every family reports it, and no config turns it off.
PARSE_ERROR_CODE = "RPL000"


class Severity(Enum):
    """How seriously a finding should be treated.

    ``ERROR`` findings fail the build; ``WARNING`` findings are
    reported but never affect the exit code.  Every shipped rule
    defaults to ``ERROR`` — a determinism bug that only warns gets
    ignored until it has already corrupted a figure.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``source_line`` is the stripped text of the offending line; it is
    part of the identity used for baseline fingerprints so that
    unrelated edits (which shift line numbers) do not churn the
    baseline.  ``occurrence`` disambiguates identical lines within the
    same file.
    """

    path: str
    line: int
    col: int
    code: str
    severity: Severity
    message: str
    source_line: str = ""
    occurrence: int = 0

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (line-number free)."""
        raw = "|".join(
            (self.path, self.code, self.source_line, str(self.occurrence))
        )
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()

    def format(self) -> str:
        """``path:line:col: CODE message`` — the classic linter line."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "source_line": self.source_line,
            "fingerprint": self.fingerprint(),
        }

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)


def finding_at(
    path: str, lines: Sequence[str], line: int, col: int, code: str,
    severity: Severity, message: str,
) -> Finding:
    """A finding at ``path:line:col`` quoting that line of ``lines``;
    every rule family builds its findings here."""
    text = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
    return Finding(path, line, col, code, severity, message, text)
