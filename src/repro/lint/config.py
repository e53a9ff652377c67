"""``pyproject.toml``-driven configuration for ``repro check``.

The config lives under ``[tool.replint]`` and serves both rule
families, per-file (RPL00x) and whole-program (RPL1xx)::

    [tool.replint]
    paths = ["src"]
    exclude = ["*/__pycache__/*"]
    baseline = ".replint-baseline.json"
    disable = []                      # rule codes to turn off globally

    [tool.replint.rules.RPL002]
    exempt = ["*/cli.py", "*/benchmarks/*", "*/examples/*"]

Per-rule tables may override ``scope`` (replaces the rule's default
glob list), add ``exempt`` patterns, or set ``severity``, for any
registered code.  Unknown keys, unknown codes and mistyped values are
errors.  Python 3.11+
reads the file with :mod:`tomllib`; on older interpreters a minimal
built-in parser handles the subset of TOML this config uses, so the
linter works everywhere the package does without new dependencies.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.findings import PARSE_ERROR_CODE, Severity
from repro.lint.registry import LintRuleError, all_rules, get_rule

try:  # Python 3.11+
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - depends on interpreter
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

DEFAULT_BASELINE = ".replint-baseline.json"
DEFAULT_EXCLUDE = ("*/__pycache__/*", "*/.git/*", "*/build/*", "*/dist/*")


def _parse_toml_subset(text: str) -> Dict[str, object]:
    """Minimal TOML reader for the ``[tool.replint*]`` tables.

    Supports table headers, string/bool/int scalars, and string arrays,
    on one line or several — exactly what the config uses.  Lines it
    cannot interpret are skipped rather than fatal, since this fallback
    only exists for interpreters without :mod:`tomllib`.
    """
    root: Dict[str, object] = {}
    current = root
    pending = ""  # the start of an array continued on later lines
    for raw in text.splitlines():
        line = f"{pending} {raw.strip()}".strip()
        pending = ""
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = root
            for part in line[1:-1].strip().strip('"').split("."):
                current = current.setdefault(part.strip(), {})  # type: ignore[assignment]
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        opened = value.strip().startswith("[")
        if opened and value.count("[") > value.count("]"):
            pending = line
            continue
        key = key.strip().strip('"')
        value = value.split("#", 1)[0].strip() if not value.strip().startswith("[") else value.strip()
        parsed = _parse_scalar_or_array(value)
        if parsed is not _SKIP:
            current[key] = parsed  # type: ignore[index]
    return root


_SKIP = object()


def _parse_scalar_or_array(value: str) -> object:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_scalar_or_array(item)
            for item in _split_array_items(inner)
        ]
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        return value[1:-1]
    if value.startswith("'") and value.endswith("'") and len(value) >= 2:
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return _SKIP


def _split_array_items(inner: str) -> List[str]:
    items: List[str] = []
    depth = 0
    quote = ""
    start = 0
    for i, ch in enumerate(inner):
        if quote:
            if ch == quote:
                quote = ""
            continue
        if ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(inner[start:i])
            start = i + 1
    tail = inner[start:].strip()
    if tail:
        items.append(tail)
    return items


@dataclass
class RuleOverride:
    """Per-rule settings from ``[tool.replint.rules.<CODE>]``."""

    scope: Optional[List[str]] = None
    exempt: List[str] = field(default_factory=list)
    severity: Optional[Severity] = None


@dataclass
class LintConfig:
    """Resolved configuration of both rule families."""

    root: str = "."
    paths: List[str] = field(default_factory=lambda: ["src"])
    exclude: List[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    baseline_path: str = DEFAULT_BASELINE
    disabled: List[str] = field(default_factory=list)
    overrides: Dict[str, RuleOverride] = field(default_factory=dict)

    def override_for(self, code: str) -> RuleOverride:
        return self.overrides.get(code, RuleOverride())

    def applies(self, code: str, path: str) -> bool:
        """Whether ``code`` runs and reports at ``path``: not disabled,
        outside the rule's and the override's exempt globs, inside the
        override's scope, else the rule's (empty means everywhere).
        The one scoping decision for every code, RPL000 included."""
        if code == PARSE_ERROR_CODE:
            return True
        if code in self.disabled:
            return False
        rule = get_rule(code)
        override = self.override_for(code)
        norm = path.replace("\\", "/")
        exempt = (*rule.exempt, *override.exempt)
        if any(fnmatch.fnmatch(norm, pattern) for pattern in exempt):
            return False
        scope = rule.scope if override.scope is None else override.scope
        return not scope or any(fnmatch.fnmatch(norm, p) for p in scope)

    @classmethod
    def load(cls, root: str = ".") -> "LintConfig":
        """Read ``pyproject.toml`` under ``root``; defaults if absent.

        An unknown key, a value of the wrong type or an unknown rule
        code raises :class:`LintRuleError` naming it, so a typo never
        silently falls back to the default.
        """
        config = cls(root=root)
        pyproject = os.path.join(root, "pyproject.toml")
        if not os.path.isfile(pyproject):
            return config
        with open(pyproject, "rb") as fh:
            raw = fh.read()
        if _toml is not None:
            try:
                data = _toml.loads(raw.decode("utf-8"))
            except ValueError as exc:
                # TOMLDecodeError and UnicodeDecodeError both derive
                # from ValueError.
                raise LintRuleError(f"cannot parse {pyproject}: {exc}") from exc
        else:
            data = _parse_toml_subset(raw.decode("utf-8"))
        codes = [rule.code for rule in all_rules()]
        head = "[tool.replint]"
        section = _table(
            head, data.get("tool", {}).get("replint", {}), _SECTION_KEYS
        )
        for key, attr in _LIST_KEYS:
            if key in section:
                setattr(config, attr, _str_list(f"{head} {key}", section[key]))
        _check_known(f"{head} disable", config.disabled, codes)
        baseline = section.get("baseline", config.baseline_path)
        if not isinstance(baseline, str) or not baseline:
            raise LintRuleError(
                f"{head} baseline must be a file name, not {baseline!r}"
            )
        config.baseline_path = baseline
        rules = _table(f"{head} rules", section.get("rules", {}), codes)
        for code, table in rules.items():
            where = f"[tool.replint.rules.{code}]"
            table = _table(where, table, ("scope", "exempt", "severity"))
            override = RuleOverride(
                exempt=_str_list(f"{where} exempt", table.get("exempt", []))
            )
            if "scope" in table:
                override.scope = _str_list(f"{where} scope", table["scope"])
            if "severity" in table:
                try:
                    override.severity = Severity(table["severity"])
                except ValueError:
                    raise LintRuleError(
                        f"{where} severity must be 'error' or 'warning', "
                        f"not {table['severity']!r}"
                    ) from None
            config.overrides[code] = override
        return config


_SECTION_KEYS = ("paths", "exclude", "baseline", "disable", "rules")
#: List-valued keys of ``[tool.replint]`` and the fields they set.
_LIST_KEYS = (
    ("paths", "paths"), ("exclude", "exclude"), ("disable", "disabled"),
)


def _table(where: str, value: object, known: Sequence[str]) -> dict:
    """``value``, checked to be a table whose keys are all ``known``."""
    if not isinstance(value, dict):
        raise LintRuleError(f"{where} must be a table, not {value!r}")
    _check_known(where, value, known)
    return value


def _check_known(
    where: str, names: Iterable[str], known: Sequence[str]
) -> None:
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise LintRuleError(
            f"{where}: unknown {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )


def _str_list(where: str, value: object) -> List[str]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return list(value)
    raise LintRuleError(f"{where} must be a list of strings, not {value!r}")
