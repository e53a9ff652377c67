"""replint: rule pack, engine, config, baseline, and CLI.

Every rule code has a paired bad/good fixture: the bad source must
produce the code, the good source must stay silent, both linted *at a
path inside the rule's scope* so the pairing exercises detection, not
scoping.  Scoping gets its own tests.  The suite ends with the
acceptance check: the real ``src/`` tree lints clean with no baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import cli
from repro.lint.baseline import (
    assign_occurrences,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.lint.config import LintConfig, _parse_toml_subset
from repro.lint.engine import PARSE_ERROR_CODE, lint_source, run_lint
from repro.lint.findings import Severity
from repro.lint.registry import LintRuleError, all_rules, get_rule

pytestmark = pytest.mark.lint

ROOT = Path(__file__).resolve().parent.parent


def codes(source: str, path: str) -> list:
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# Paired fixtures: (path, bad source, good source) per rule code
# ---------------------------------------------------------------------------

FIXTURES = {
    "RPL001": (
        "src/repro/synthesis/sampler.py",
        """
        import random
        import numpy as np

        def jitter(values):
            rng = random.Random()
            shuffled = np.random.permutation(values)
            gen = np.random.default_rng()
            return rng.random() + random.random() + gen.random() + shuffled[0]
        """,
        """
        import random
        import numpy as np

        def jitter(values, seed):
            rng = random.Random(seed)
            gen = np.random.default_rng(seed)
            return rng.random() + gen.permutation(values)[0]
        """,
    ),
    "RPL002": (
        "src/repro/stats/windows.py",
        """
        import time
        from datetime import date, datetime

        def stamp_rows(rows):
            started = time.time()
            today = date.today()
            now = datetime.now()
            return [(started, today, now, row) for row in rows]
        """,
        """
        import time

        def measure(fn, clock=time.monotonic):
            before = clock()
            fn()
            return clock() - before
        """,
    ),
    "RPL003": (
        "src/repro/telemetry/rollup.py",
        """
        def fold(records):
            total = 0
            for record in records:
                try:
                    total += record.view_hours
                except Exception:
                    continue
            return total
        """,
        """
        from repro.errors import DatasetError

        def fold(records, metrics):
            total = 0
            for record in records:
                try:
                    total += record.view_hours
                except DatasetError:
                    continue
                except Exception:
                    metrics.count("fold_crash")
                    raise
            return total
        """,
    ),
    "RPL004": (
        "src/repro/stats/spread.py",
        """
        def variance_ratio(ss_num, ss_den):
            if ss_den == 0.0:
                return 1.0
            if ss_num != 0.0:
                return ss_num / ss_den
            return 0.0
        """,
        """
        import math

        def variance_ratio(ss_num, ss_den, n):
            if n == 0:
                return 1.0
            if math.isclose(ss_den, 0.0, abs_tol=1e-12):
                return 1.0
            return ss_num / ss_den
        """,
    ),
    "RPL005": (
        "src/repro/delivery/budget.py",
        """
        def total_stall(startup_ms, rebuffer_s):
            return startup_ms + rebuffer_s

        def headroom(link_kbps, overhead_bps):
            link_kbps -= overhead_bps
            return link_kbps
        """,
        """
        from repro import units

        def total_stall(startup_ms, rebuffer_s):
            return startup_ms / 1000.0 + rebuffer_s

        def storage(bitrate_kbps, duration_seconds, base_seconds):
            padded_seconds = duration_seconds + base_seconds
            return units.rendition_bytes(bitrate_kbps, padded_seconds)
        """,
    ),
    "RPL006": (
        "src/repro/figures.py",
        """
        def protocol_rows(records):
            names = set(r.protocol for r in records)
            rows = []
            for name in names | {"rtmp"}:
                pass
            for name in set(records):
                rows.append({"protocol": name})
            rows.extend({"p": n} for n in {"hls", "dash"})
            return rows, ",".join({r.cdn for r in records})
        """,
        """
        def protocol_rows(records):
            names = sorted(set(r.protocol for r in records))
            rows = [{"protocol": name} for name in names]
            rows.extend({"p": n} for n in sorted({"hls", "dash"}))
            return rows, ",".join(sorted({r.cdn for r in records}))
        """,
    ),
    "RPL007": (
        "src/repro/telemetry/ingest.py",
        """
        import time

        def fold(events, deadline):
            started = time.monotonic()
            print("folding", len(events))
            return [e for e in events if started < deadline]
        """,
        """
        import time

        from repro import obs

        def fold(events, clock=time.monotonic):
            with obs.span("ingest.fold", events=len(events)) as span:
                span.set(started=clock())
            obs.emit("ingest.fold.done", events=len(events))
            return list(events)
        """,
    ),
    "RPL008": (
        "src/repro/core/status.py",
        """
        def announce(step, total):
            print(f"step {step}/{total}")
            print("done")
            return step
        """,
        """
        from repro import obs

        def announce(step, total):
            obs.emit("core.step", step=step, total=total)
            return step
        """,
    ),
}


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_bad_fixture_fires(code):
    path, bad, _ = FIXTURES[code]
    found = codes(bad, path)
    assert code in found, f"{code} did not fire on its bad fixture"
    assert set(found) == {code}, (
        f"bad fixture for {code} tripped unrelated rules: {sorted(set(found))}"
    )


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_good_fixture_silent(code):
    path, _, good = FIXTURES[code]
    assert codes(good, path) == [], f"{code} fired on its good fixture"


def test_every_registered_rule_has_a_fixture_pair():
    per_file = [cls.code for cls in all_rules() if not cls.whole_program]
    assert sorted(per_file) == sorted(FIXTURES)


# ---------------------------------------------------------------------------
# Rule-specific details
# ---------------------------------------------------------------------------


class TestRuleDetails:
    def test_rpl001_counts_each_unseeded_site(self):
        path, bad, _ = FIXTURES["RPL001"]
        assert codes(bad, path).count("RPL001") == 4

    def test_rpl001_out_of_scope_path_silent(self):
        _, bad, _ = FIXTURES["RPL001"]
        assert codes(bad, "src/repro/core/counts.py") == []

    def test_rpl001_covers_the_telemetry_fault_driver(self):
        src = """
        import random
        rng = random.Random()
        """
        assert codes(src, "src/repro/chaos/injectors.py") == ["RPL001"]

    def test_rpl001_seeded_constructor_keyword(self):
        src = """
        import random
        rng = random.Random(x=3)
        """
        assert codes(src, "src/repro/playback/abr.py") == []

    def test_rpl002_exempt_in_cli(self):
        _, bad, _ = FIXTURES["RPL002"]
        assert codes(bad, "src/repro/cli.py") == []

    def test_rpl002_exempt_in_benchmarks(self):
        _, bad, _ = FIXTURES["RPL002"]
        assert codes(bad, "benchmarks/bench_lint.py") == []

    def test_rpl003_bare_except_flagged(self):
        src = """
        try:
            risky()
        except:
            pass
        """
        assert codes(src, "src/repro/anything.py") == ["RPL003"]

    def test_rpl003_reraise_is_clean(self):
        src = """
        try:
            risky()
        except Exception:
            log()
            raise
        """
        assert codes(src, "src/repro/anything.py") == []

    def test_rpl003_tuple_containing_exception_flagged(self):
        src = """
        try:
            risky()
        except (ValueError, Exception):
            pass
        """
        assert codes(src, "src/repro/anything.py") == ["RPL003"]

    def test_rpl004_integer_equality_allowed(self):
        assert codes("ok = n == 0", "src/repro/stats/a.py") == []

    def test_rpl004_only_in_stats(self):
        assert codes("bad = x == 0.0", "src/repro/core/a.py") == []
        assert codes("bad = x == 0.0", "src/repro/stats/a.py") == ["RPL004"]

    def test_rpl005_same_unit_aliases_allowed(self):
        src = "total = duration_s + extra_seconds"
        assert codes(src, "src/repro/delivery/a.py") == []

    def test_rpl005_multiplication_converts_units(self):
        src = "footprint = bitrate_kbps * duration_seconds"
        assert codes(src, "src/repro/delivery/a.py") == []

    def test_rpl005_hours_vs_seconds(self):
        src = "oops = view_hours + startup_seconds"
        assert codes(src, "src/repro/core/a.py") == ["RPL005"]

    def test_rpl006_sorted_wrapping_silences(self):
        src = """
        rows = [p for p in sorted({"a", "b"})]
        """
        assert codes(src, "src/repro/figures.py") == []

    def test_rpl006_only_in_figure_modules(self):
        src = "rows = list({1, 2, 3})"
        assert codes(src, "src/repro/core/a.py") == []
        assert codes(src, "src/repro/experiments.py") == ["RPL006"]

    def test_rpl007_counts_each_bypass_site(self):
        path, bad, _ = FIXTURES["RPL007"]
        assert codes(bad, path).count("RPL007") == 2

    def test_rpl007_clock_module_is_the_exemption(self):
        src = "import time\nnow = time.monotonic()\n"
        assert codes(src, "src/repro/obs/clock.py") == []
        assert codes(src, "src/repro/obs/tracing.py") == ["RPL007"]

    def test_rpl007_out_of_scope_path_silent(self):
        _, bad, _ = FIXTURES["RPL007"]
        found = codes(bad, "src/repro/core/counts.py")
        # The print() hands over to RPL008 outside instrumented
        # modules; the clock read is RPL007-only and must not leak.
        assert "RPL007" not in found
        assert found == ["RPL008"]

    def test_rpl007_clock_reference_is_not_a_call(self):
        src = "import time\ndef f(clock=time.monotonic):\n    return clock\n"
        assert codes(src, "src/repro/resilience.py") == []

    def test_rpl008_counts_each_print_site(self):
        path, bad, _ = FIXTURES["RPL008"]
        assert codes(bad, path).count("RPL008") == 2

    def test_rpl008_cli_is_exempt(self):
        _, bad, _ = FIXTURES["RPL008"]
        assert codes(bad, "src/repro/cli.py") == []

    def test_rpl008_defers_to_rpl007_in_instrumented_modules(self):
        _, bad, _ = FIXTURES["RPL008"]
        found = codes(bad, "src/repro/telemetry/ingest.py")
        assert "RPL008" not in found
        assert found.count("RPL007") == 2

    def test_rpl008_out_of_tree_path_silent(self):
        _, bad, _ = FIXTURES["RPL008"]
        assert codes(bad, "tests/test_whatever.py") == []
        assert codes(bad, "benchmarks/bench_x.py") == []


# ---------------------------------------------------------------------------
# Engine mechanics: pragmas, parse errors, fingerprints, baseline
# ---------------------------------------------------------------------------


class TestEngine:
    def test_pragma_suppresses_named_code(self):
        src = "bad = x == 0.0  # replint: disable=RPL004"
        assert codes(src, "src/repro/stats/a.py") == []

    def test_pragma_without_codes_suppresses_line(self):
        src = "bad = x == 0.0  # replint: disable"
        assert codes(src, "src/repro/stats/a.py") == []

    def test_pragma_leaves_other_lines_alone(self):
        src = """
        a = x == 0.0  # replint: disable=RPL004
        b = y != 1.5
        """
        findings = lint_source(textwrap.dedent(src), "src/repro/stats/a.py")
        assert [f.code for f in findings] == ["RPL004"]
        assert findings[0].line == 3

    def test_syntax_error_reported_as_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/stats/a.py")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]
        assert findings[0].severity is Severity.ERROR

    def test_parser_resource_exhaustion_reported_not_raised(self):
        """Pathological nesting must become RPL000, not kill the run."""
        hostile = "-" * 100000 + "x"
        findings = lint_source(hostile, "src/repro/stats/a.py")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]
        assert findings[0].severity is Severity.ERROR

    def test_null_byte_source_reported_not_raised(self):
        findings = lint_source("x = 1\0\n", "src/repro/stats/a.py")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]

    def test_overlapping_paths_lint_each_file_once(self, tmp_path):
        """`repro lint src src/pkg` must not double-report findings."""
        pkg = tmp_path / "src" / "stats"
        pkg.mkdir(parents=True)
        (pkg / "guard.py").write_text("flag = value == 0.0\n")
        config = LintConfig(root=str(tmp_path))
        result = run_lint(
            ["src", "src/stats", "src/stats/guard.py"],
            config=config,
            use_baseline=False,
        )
        assert result.files_checked == 1
        assert [f.code for f in result.findings] == ["RPL004"]

    def test_symlink_alias_lints_each_file_once(self, tmp_path):
        """A symlinked alias of a tree is the same tree, not a copy."""
        pkg = tmp_path / "src" / "stats"
        pkg.mkdir(parents=True)
        (pkg / "guard.py").write_text("flag = value == 0.0\n")
        alias = tmp_path / "alias"
        try:
            alias.symlink_to(tmp_path / "src", target_is_directory=True)
        except OSError:
            pytest.skip("platform does not allow symlinks")
        config = LintConfig(root=str(tmp_path))
        result = run_lint(
            ["src", "alias"], config=config, use_baseline=False
        )
        assert result.files_checked == 1
        assert [f.code for f in result.findings] == ["RPL004"]

    def test_fingerprint_survives_line_moves(self):
        src_a = "bad = x == 0.0"
        src_b = "# a new leading comment\n\nbad = x == 0.0"
        (fa,) = lint_source(src_a, "src/repro/stats/a.py")
        (fb,) = lint_source(src_b, "src/repro/stats/a.py")
        assert fa.line != fb.line
        assert fa.fingerprint() == fb.fingerprint()

    def test_identical_lines_get_distinct_fingerprints(self):
        src = "a = x == 0.0\nb = y == 1.0\n"
        findings = assign_occurrences(
            lint_source(src, "src/repro/stats/a.py")
        )
        prints = {f.fingerprint() for f in findings}
        assert len(prints) == 2

    def test_baseline_roundtrip(self, tmp_path):
        findings = lint_source("bad = x == 0.0", "src/repro/stats/a.py")
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(str(baseline_file), findings) == 1
        suppressions = load_baseline(str(baseline_file))
        fresh, suppressed = split_by_baseline(findings, suppressions)
        assert fresh == []
        assert len(suppressed) == 1

    def test_baseline_does_not_hide_new_findings(self, tmp_path):
        old = lint_source("bad = x == 0.0", "src/repro/stats/a.py")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), old)
        both = lint_source(
            "bad = x == 0.0\nworse = y != 2.5\n", "src/repro/stats/a.py"
        )
        fresh, suppressed = split_by_baseline(
            both, load_baseline(str(baseline_file))
        )
        assert [f.source_line for f in fresh] == ["worse = y != 2.5"]
        assert len(suppressed) == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"not": "a baseline"}')
        with pytest.raises(LintRuleError):
            load_baseline(str(bad))

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-int"]
    )
    def test_baseline_the_json_decoder_cannot_hold(self, tmp_path, text):
        bad = tmp_path / "baseline.json"
        bad.write_text(text)
        with pytest.raises(LintRuleError, match="baseline.json"):
            load_baseline(str(bad))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def _write_project(self, tmp_path, body):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent(body))

    def test_defaults_without_pyproject(self, tmp_path):
        config = LintConfig.load(str(tmp_path))
        assert config.paths == ["src"]
        assert config.baseline_path == ".replint-baseline.json"

    def test_loads_replint_section(self, tmp_path):
        self._write_project(
            tmp_path,
            """
            [tool.replint]
            paths = ["pkg"]
            baseline = "custom-baseline.json"
            disable = ["RPL005"]

            [tool.replint.rules.RPL004]
            scope = ["pkg/math/*"]
            severity = "warning"
            """,
        )
        config = LintConfig.load(str(tmp_path))
        assert config.paths == ["pkg"]
        assert config.baseline_path == "custom-baseline.json"
        assert config.disabled == ["RPL005"]
        override = config.override_for("RPL004")
        assert override.scope == ["pkg/math/*"]
        assert override.severity is Severity.WARNING

    def test_disabled_rule_does_not_run(self, tmp_path):
        self._write_project(
            tmp_path,
            """
            [tool.replint]
            disable = ["RPL004"]
            """,
        )
        config = LintConfig.load(str(tmp_path))
        assert lint_source("x = y == 0.0", "src/repro/stats/a.py", config) == []

    def test_scope_override_replaces_default(self, tmp_path):
        self._write_project(
            tmp_path,
            """
            [tool.replint.rules.RPL004]
            scope = ["pkg/math/*"]
            """,
        )
        config = LintConfig.load(str(tmp_path))
        assert lint_source("x = y == 0.0", "src/repro/stats/a.py", config) == []
        hits = lint_source("x = y == 0.0", "pkg/math/a.py", config)
        assert [f.code for f in hits] == ["RPL004"]

    def test_fallback_parser_matches_tomllib(self):
        sample = textwrap.dedent(
            """
            [tool.replint]
            paths = ["src", "tools"]
            disable = []
            baseline = ".replint-baseline.json"

            [tool.replint.rules.RPL002]
            exempt = ["*/cli.py", "benchmarks/*"]
            """
        )
        tomllib = pytest.importorskip("tomllib")
        assert _parse_toml_subset(sample) == tomllib.loads(sample)

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(LintRuleError):
            get_rule("RPL999")


# ---------------------------------------------------------------------------
# CLI and whole-tree acceptance
# ---------------------------------------------------------------------------


class TestCli:
    def _seed_project(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.replint]\npaths = ["pkg"]\n'
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "stats").mkdir()
        (pkg / "stats" / "guard.py").write_text("flag = value == 0.0\n")
        return tmp_path

    def test_lint_reports_finding_and_fails(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        exit_code = cli.main(["check", "--root", str(root)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "RPL004" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        exit_code = cli.main(
            ["check", "--root", str(root), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["summary"]["new_errors"] == 1
        assert payload["findings"][0]["code"] == "RPL004"

    def test_baseline_flag_snapshots_then_passes(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        assert cli.main(["check", "--root", str(root), "--baseline"]) == 0
        assert (root / ".replint-baseline.json").is_file()
        capsys.readouterr()
        assert cli.main(["check", "--root", str(root)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_no_baseline_overrides_suppressions(self, tmp_path):
        root = self._seed_project(tmp_path)
        assert cli.main(["check", "--root", str(root), "--baseline"]) == 0
        assert cli.main(["check", "--root", str(root), "--no-baseline"]) == 1

    def test_non_utf8_baseline_exits_2_naming_it(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        (root / ".replint-baseline.json").write_bytes(b"\xff\xfe{}")
        assert cli.main(["check", "--root", str(root)]) == 2
        assert ".replint-baseline.json" in capsys.readouterr().err


class TestAcceptance:
    def test_src_tree_is_clean_with_empty_baseline(self):
        """The headline invariant: `repro lint src/` exits 0, no baseline."""
        config = LintConfig.load(str(ROOT))
        result = run_lint(
            [str(ROOT / "src")], config=config, use_baseline=False
        )
        assert result.files_checked > 80
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings
        )
        assert result.exit_code == 0

    def test_cli_src_tree_clean(self, capsys):
        exit_code = cli.main(
            ["check", str(ROOT / "src"), "--root", str(ROOT)]
        )
        assert exit_code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_repo_baseline_is_absent_or_empty(self):
        baseline = ROOT / ".replint-baseline.json"
        if baseline.is_file():
            assert load_baseline(str(baseline)) == {}
