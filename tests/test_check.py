"""One static checker: both rule families through ``repro check``.

``tests/golden/check_findings.json`` pins the sorted ``(path, line,
col, code, severity, message)`` of every finding on two trees:

* ``repgraph_demo`` — the fixture package of planted RPL1xx hazards;
* ``lint_fixtures`` — each bad source of
  :data:`tests.test_lint_rules.FIXTURES`, written at its own path.

It was written by running both families apart (``run_lint`` plus
``run_analysis``) before they shared an engine; :func:`run_check`
must reproduce it from one parse.  Regenerate it only on purpose,
with ``PYTHONPATH=src python -m tests.test_check``.
"""

from __future__ import annotations

import json
import sysconfig
import textwrap
from collections import Counter
from pathlib import Path
from typing import Dict, List

import pytest

from repro import cli
from repro.analysis.engine import run_analysis, run_check
from repro.lint.config import LintConfig
from repro.lint.engine import run_lint
from repro.lint import config as lint_config
from repro.lint import engine as lint_engine
from repro.lint.registry import LintRuleError, get_rule

from tests.test_lint_rules import FIXTURES

pytestmark = [pytest.mark.lint, pytest.mark.analysis]

ROOT = Path(__file__).resolve().parent.parent
DEMO_ROOT = ROOT / "tests" / "fixtures" / "repgraph_demo"
GOLDEN_PATH = ROOT / "tests" / "golden" / "check_findings.json"
STDLIB = Path(sysconfig.get_paths()["stdlib"])


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def write_lint_fixtures(root: Path) -> Path:
    """Every per-file rule's bad source, at the path its rule covers."""
    return write_tree(root, {path: bad for path, bad, _ in FIXTURES.values()})


def rows(findings) -> List[list]:
    return sorted(
        [f.path, f.line, f.col, f.code, f.severity.value, f.message]
        for f in findings
    )


def family_findings(root: Path, paths: List[str]) -> List[list]:
    """Both families run apart, as ``repro lint`` plus ``repro analyze``."""
    config = LintConfig(root=str(root))
    lint = run_lint(paths, config=config, use_baseline=False)
    analysis = run_analysis(paths, config=config, use_baseline=False)
    return rows(list(lint.findings) + list(analysis.findings))


def golden_trees(scratch: Path) -> Dict[str, tuple]:
    return {
        "lint_fixtures": (write_lint_fixtures(scratch), ["src"]),
        "repgraph_demo": (DEMO_ROOT, ["demo"]),
    }


def write_golden(path: Path = GOLDEN_PATH) -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        payload = {
            name: family_findings(root, paths)
            for name, (root, paths) in golden_trees(Path(scratch)).items()
        }
    # One finding per line, so a diff of the golden reads as a diff of
    # findings.
    trees = [
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"    {json.dumps(row)}" for row in payload[name])
        + "\n  ]"
        for name in sorted(payload)
    ]
    path.write_text("{\n" + ",\n".join(trees) + "\n}\n", encoding="utf-8")


def golden() -> Dict[str, List[list]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Same findings: the golden, the aliases' shares, and parity
# ---------------------------------------------------------------------------


class TestGolden:
    def test_golden_counts(self):
        pinned = golden()
        demo = [row[3] for row in pinned["repgraph_demo"]]
        assert sorted(demo) == [
            "RPL101", "RPL102", "RPL103", "RPL103", "RPL104",
        ]
        fixtures = [row[3] for row in pinned["lint_fixtures"]]
        assert sum(code < "RPL100" for code in fixtures) == 19
        assert [c for c in fixtures if c > "RPL100"] == ["RPL101", "RPL101"]

    @pytest.mark.parametrize("tree", ["lint_fixtures", "repgraph_demo"])
    def test_run_check_reproduces_the_golden(self, tree, tmp_path):
        root, paths = golden_trees(tmp_path)[tree]
        config = LintConfig(root=str(root))
        result = run_check(paths, config=config, use_baseline=False)
        assert rows(result.findings) == golden()[tree]

    @pytest.mark.parametrize("tree", ["lint_fixtures", "repgraph_demo"])
    def test_each_family_reproduces_its_share(self, tree, tmp_path):
        root, paths = golden_trees(tmp_path)[tree]
        config = LintConfig(root=str(root))
        for run, whole_program in ((run_lint, False), (run_analysis, True)):
            share = [
                row for row in golden()[tree]
                if get_rule(row[3]).whole_program is whole_program
            ]
            result = run(paths, config=config, use_baseline=False)
            assert rows(result.findings) == share


@pytest.mark.parametrize(
    "root, paths",
    [
        (ROOT, ["src"]),
        (DEMO_ROOT, ["demo"]),
        (STDLIB, ["json", "http", "concurrent"]),
    ],
    ids=["src", "repgraph_demo", "stdlib"],
)
def test_run_check_equals_the_union_of_both_families(root, paths):
    if root == ROOT:
        config = LintConfig.load(str(root))
    else:
        config = LintConfig(root=str(root))
    checked = run_check(paths, config=config, use_baseline=False)
    lint = run_lint(paths, config=config, use_baseline=False)
    analysis = run_analysis(paths, config=config, use_baseline=False)
    assert rows(checked.findings) == rows(lint.findings + analysis.findings)
    assert checked.files_checked == lint.files_checked
    assert checked.stats == analysis.stats


# ---------------------------------------------------------------------------
# Parse once, and one RPL000 per file that cannot be read or parsed
# ---------------------------------------------------------------------------


def test_run_check_parses_each_file_exactly_once(tmp_path, monkeypatch):
    parsed: Counter = Counter()
    parse = lint_engine.parse_source

    def spy(path, text):
        parsed[path] += 1
        return parse(path, text)

    monkeypatch.setattr(lint_engine, "parse_source", spy)
    root = write_lint_fixtures(tmp_path)
    result = run_check(["src"], config=LintConfig(root=str(root)))
    assert len(parsed) == result.files_checked == len(FIXTURES)
    assert set(parsed.values()) == {1}


NOT_UTF8 = b'import random\nx = "\xff\xfe"\nrng = random.Random()\n'


class TestUnreadable:
    def _tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "latin.py").write_bytes(NOT_UTF8)
        return LintConfig(root=str(tmp_path))

    @pytest.mark.parametrize("run", [run_lint, run_analysis, run_check])
    def test_every_family_reports_one_rpl000(self, run, tmp_path):
        result = run(["pkg"], config=self._tree(tmp_path))
        assert [(f.path, f.code) for f in result.findings] == [
            ("pkg/latin.py", "RPL000")
        ]
        assert "cannot read file" in result.findings[0].message
        assert result.exit_code == 1

    def test_cli_check_fails_on_an_unreadable_file(self, tmp_path, capsys):
        self._tree(tmp_path)
        args = ["check", "pkg", "--root", str(tmp_path), "--format", "json"]
        assert cli.main(args) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["RPL000"]

    def test_unparsable_file_is_one_rpl000(self, tmp_path):
        write_tree(tmp_path, {"pkg/broken.py": "def broken(:\n"})
        result = run_check(["pkg"], config=LintConfig(root=str(tmp_path)))
        assert [f.code for f in result.findings] == ["RPL000"]
        assert result.files_checked == 1


# ---------------------------------------------------------------------------
# One config: [tool.replint] applies to every code
# ---------------------------------------------------------------------------

HAZARDS = {
    # RPL004: float equality, in scope under */stats/*.
    "pkg/stats/guard.py": "flag = value == 0.0\n",
    # RPL101: an unseeded RNG origin, flagged anywhere.
    "pkg/stats/streams.py": (
        "import random\n\ndef fresh():\n    return random.Random()\n"
    ),
}

OVERRIDES = {
    "disable": 'disable = ["{code}"]\n',
    "scope": '\n[tool.replint.rules.{code}]\nscope = ["other/*"]\n',
    "exempt": '\n[tool.replint.rules.{code}]\nexempt = ["pkg/*"]\n',
    "severity": '\n[tool.replint.rules.{code}]\nseverity = "warning"\n',
}


@pytest.mark.parametrize(
    "code, other", [("RPL004", "RPL101"), ("RPL101", "RPL004")]
)
@pytest.mark.parametrize("setting", sorted(OVERRIDES))
def test_config_applies_to_both_families(
    setting, code, other, tmp_path, capsys
):
    write_tree(tmp_path, HAZARDS)
    (tmp_path / "pyproject.toml").write_text(
        '[tool.replint]\npaths = ["pkg"]\n'
        + OVERRIDES[setting].format(code=code)
    )
    expected = {other: "error"}
    if setting == "severity":
        expected[code] = "warning"

    config = LintConfig.load(str(tmp_path))
    result = run_check(None, config=config, use_baseline=False)
    assert {f.code: f.severity.value for f in result.findings} == expected

    args = ["check", "--root", str(tmp_path), "--format", "json"]
    assert cli.main(args) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["code"]: f["severity"] for f in payload["findings"]} == expected


BAD_CONFIGS = {
    "disable-string": ('disable = "RPL004"', "disable"),
    "exempt-string": (
        '[tool.replint.rules.RPL004]\nexempt = "src/*"', "exempt"
    ),
    "misspelt-key": ('analysis_path = ["src"]', "analysis_path"),
    "unknown-code": ('disable = ["RPL999"]', "RPL999"),
    "removed-analysis-paths": ('analysis_paths = ["src"]', "analysis_paths"),
    "removed-analysis-baseline": (
        'analysis_baseline = ".repgraph-baseline.json"', "analysis_baseline"
    ),
    "unknown-rule-table": ("[tool.replint.rules.RPL999]", "RPL999"),
    "unknown-rule-key": (
        "[tool.replint.rules.RPL101]\nexclude = []", "exclude"
    ),
    "bad-severity": (
        '[tool.replint.rules.RPL101]\nseverity = "fatal"', "severity"
    ),
}


@pytest.mark.parametrize("reader", ["tomllib", "fallback"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_rejects_mistyped_values_and_unknown_names(
    case, reader, tmp_path, monkeypatch
):
    if reader == "fallback":
        monkeypatch.setattr(lint_config, "_toml", None)
    elif lint_config._toml is None:
        pytest.skip("no TOML library on this interpreter")
    body, named = BAD_CONFIGS[case]
    (tmp_path / "pyproject.toml").write_text(f"[tool.replint]\n{body}\n")
    with pytest.raises(LintRuleError) as raised:
        LintConfig.load(str(tmp_path))
    assert named in str(raised.value)
    if case == "unknown-code":
        assert "known: RPL001" in str(raised.value)
        assert "RPL104" in str(raised.value)


def test_repo_pyproject_loads_under_both_readers(monkeypatch):
    config = LintConfig.load(str(ROOT))
    assert config.paths == ["src", "tests", "benchmarks"]
    monkeypatch.setattr(lint_config, "_toml", None)
    assert LintConfig.load(str(ROOT)) == config


def test_cli_config_error_exits_2(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.replint]\nanalysis_paths = ["src"]\n'
    )
    assert cli.main(["check", "--root", str(tmp_path)]) == 2
    assert "analysis_paths" in capsys.readouterr().err


MISSING_PATHS = {
    "missing-dir": (["nowhere"], None, "nowhere"),
    "typo-beside-a-real-file": (
        ["pkg/typo.py", "pkg/stats/guard.py"], None, "pkg/typo.py"
    ),
    "missing-configured-path": (
        None, '[tool.replint]\npaths = ["pkg", "lib"]\n', "lib"
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_PATHS))
def test_missing_path_is_an_error(case, tmp_path, capsys):
    """A path that does not exist is named and fails; it is not a
    clean run over zero files, nor dropped beside a real one."""
    paths, pyproject, named = MISSING_PATHS[case]
    write_tree(tmp_path, HAZARDS)
    if pyproject is not None:
        (tmp_path / "pyproject.toml").write_text(pyproject)
    with pytest.raises(LintRuleError) as raised:
        run_check(paths, config=LintConfig.load(str(tmp_path)))
    assert named in str(raised.value)
    assert cli.main(["check", *(paths or []), "--root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("check: ") and named in err


# ---------------------------------------------------------------------------
# One CLI: `repro check`
# ---------------------------------------------------------------------------


class TestCli:
    def test_demo_fails_and_json_is_byte_stable(self, capsys):
        args = ["check", "demo", "--root", str(DEMO_ROOT), "--format", "json"]
        assert cli.main(args) == 1
        first = capsys.readouterr().out
        assert cli.main(args) == 1
        assert capsys.readouterr().out == first
        summary = json.loads(first)["summary"]
        assert summary["files_checked"] == 6
        assert summary["new_errors"] == 5
        assert summary["call_edges"] == 4

    def test_one_baseline_serves_both_families(self, tmp_path, capsys):
        write_tree(tmp_path, HAZARDS)
        root = ["--root", str(tmp_path)]
        assert cli.main(["check", "pkg", *root, "--baseline"]) == 0
        assert cli.main(["check", "pkg", *root]) == 0
        assert cli.main(["check", "pkg", *root, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPL004" in out and "RPL101" in out


def test_repo_is_clean_on_an_empty_baseline(capsys):
    """`repro check` over the configured src, tests and benchmarks."""
    assert cli.main(["check", "--root", str(ROOT), "--no-baseline"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "0 error(s)" in summary and summary.endswith("— clean")


if __name__ == "__main__":
    write_golden()
