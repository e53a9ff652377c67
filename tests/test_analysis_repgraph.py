"""repgraph: symbol table, call graph, effect fixpoints, RPL1xx rules.

The suite climbs the analyzer's three layers — project model, call
graph, effect/taint analyses — then closes with the claims that make
the whole-program pass worth having:

* every seeded hazard in ``tests/fixtures/repgraph_demo`` fires its
  RPL1xx analysis **and** is invisible to the per-file replint rules,
* the JSON report is byte-identical across runs (pinned by a golden
  file), and
* the real ``src/`` tree analyzes clean with no baseline — the
  pipeline is proven safe to parallelize.
"""

from __future__ import annotations

import json
import sysconfig
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, obs
from repro.analysis.callgraph import MODULE_FN, build_call_graph
from repro.analysis.effects import EffectAnalysis
from repro.analysis.engine import collect_findings, run_analysis
from repro.analysis.project import Project, load_project
from repro.lint.baseline import (
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.lint.config import LintConfig
from repro.lint.engine import (
    apply_pragmas,
    collect_files,
    pragma_map,
    run_lint,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules, get_rule
from repro.lint.report import (
    REPORT_VERSION,
    format_json,
    format_text,
    graph_json,
)
from repro.testkit.reference import (
    ReferenceEffectAnalysis,
    reference_call_graph,
    scope_walk,
    subclasses_by_mro,
)

pytestmark = pytest.mark.analysis

ROOT = Path(__file__).resolve().parent.parent
DEMO_ROOT = ROOT / "tests" / "fixtures" / "repgraph_demo"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "repgraph_demo_report.json"

DEMO_CODES = ("RPL101", "RPL102", "RPL103", "RPL104")


def project_of(files: dict) -> Project:
    """Build an in-memory project from ``{relative_path: source}``."""
    return Project.from_sources(
        [(path, textwrap.dedent(text)) for path, text in files.items()]
    )


def write_tree(tmp_path: Path, files: dict) -> Path:
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def analyze_tree(tmp_path: Path, files: dict, **kwargs):
    write_tree(tmp_path, files)
    config = LintConfig(root=str(tmp_path))
    kwargs.setdefault("use_baseline", False)
    return run_analysis(None, config=config, **kwargs)


def demo_result(**kwargs):
    config = LintConfig(root=str(DEMO_ROOT))
    kwargs.setdefault("use_baseline", False)
    return run_analysis(["demo"], config=config, **kwargs)


# ---------------------------------------------------------------------------
# Layer 1: project model (modules, symbols, functions, classes)
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_names_strip_source_root_and_init(self):
        project = project_of({
            "src/app/__init__.py": "",
            "src/app/util.py": "def helper():\n    return 1\n",
        })
        assert set(project.modules) == {"app", "app.util"}
        assert "app.util.helper" in project.functions

    def test_import_alias_resolution(self):
        project = project_of({
            "src/app/a.py": "import numpy as np\nimport app.util as u\n",
        })
        module = project.modules["app.a"]
        assert project.resolve(module, "np.random.default_rng") == (
            "numpy.random.default_rng"
        )
        assert project.resolve(module, "u.helper") == "app.util.helper"

    def test_relative_import_resolution(self):
        project = project_of({
            "src/app/__init__.py": "",
            "src/app/util.py": "def helper():\n    return 1\n",
            "src/app/sub/__init__.py": "",
            "src/app/sub/mod.py": "from ..util import helper as h\n",
        })
        module = project.modules["app.sub.mod"]
        assert project.resolve(module, "h") == "app.util.helper"

    def test_method_qualnames_and_inheritance(self):
        project = project_of({
            "src/app/shapes.py": """
            class Base:
                def area(self):
                    return 0

            class Square(Base):
                def __init__(self, side):
                    self.side = side
            """,
        })
        assert "app.shapes.Base.area" in project.functions
        assert project.lookup_method("app.shapes.Square", "area") == (
            "app.shapes.Base.area"
        )

    def test_parse_failure_is_a_finding_not_a_crash(self):
        project = project_of({
            "src/app/ok.py": "x = 1\n",
            "src/app/broken.py": "def broken(:\n",
        })
        assert [f.code for f in project.parse_findings] == ["RPL000"]
        assert project.modules["app.ok"].tree is not None

    def test_rng_globals_classified_with_seededness(self):
        project = project_of({
            "src/app/streams.py": """
            import random
            import numpy as np

            SEEDED = random.Random(7)
            WILD = np.random.default_rng()
            """,
        })
        rng = project.modules["app.streams"].rng_globals
        assert rng["SEEDED"].seeded and not rng["WILD"].seeded
        assert rng["WILD"].ctor == "numpy.random.default_rng"
        assert set(project.rng_symbols()) == {
            "app.streams.SEEDED",
            "app.streams.WILD",
        }


# ---------------------------------------------------------------------------
# Layer 2: call graph (edges, method binding, fan-out sites)
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cross_module_edge_through_import(self):
        project = project_of({
            "src/app/util.py": "def helper():\n    return 1\n",
            "src/app/main.py": """
            from app import util

            def go():
                return util.helper()
            """,
        })
        graph = build_call_graph(project)
        assert "app.util.helper" in graph.callees("app.main.go")
        assert "app.main.go" in graph.callers("app.util.helper")

    def test_local_instance_method_binding(self):
        project = project_of({
            "src/app/shapes.py": """
            class Square:
                def area(self):
                    return 4

            def measure():
                sq = Square()
                return sq.area()
            """,
        })
        graph = build_call_graph(project)
        assert "app.shapes.Square.area" in graph.callees(
            "app.shapes.measure"
        )

    def test_module_level_calls_belong_to_module_fn(self):
        project = project_of({
            "src/app/boot.py": """
            def init():
                return 1

            STATE = init()
            """,
        })
        graph = build_call_graph(project)
        assert "app.boot.init" in graph.callees(f"app.boot.{MODULE_FN}")

    def test_fanout_site_resolves_worker_through_partial(self):
        project = project_of({
            "src/app/work.py": """
            from concurrent.futures import ProcessPoolExecutor
            from functools import partial

            def worker(config, item):
                return (config, item)

            def run(config, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(partial(worker, config), items))
            """,
        })
        graph = build_call_graph(project)
        assert [s.worker for s in graph.fanouts] == ["app.work.worker"]
        assert graph.fanouts[0].pool == (
            "concurrent.futures.ProcessPoolExecutor"
        )

    def test_shortest_path_is_deterministic(self):
        project = project_of({
            "src/app/chain.py": """
            def a():
                return b() + c()

            def b():
                return d()

            def c():
                return d()

            def d():
                return 1
            """,
        })
        graph = build_call_graph(project)
        path = graph.shortest_path("app.chain.a", "app.chain.d")
        # BFS over sorted adjacency: the b-branch wins ties.
        assert path == ["app.chain.a", "app.chain.b", "app.chain.d"]
        reach = graph.reachable_from(["app.chain.b"])
        assert "app.chain.c" not in reach and "app.chain.d" in reach


# ---------------------------------------------------------------------------
# Layer 3: effect and taint fixpoints
# ---------------------------------------------------------------------------


class TestEffects:
    def _effects(self, project):
        return EffectAnalysis(project, build_call_graph(project))

    def test_transitive_global_write_reaches_caller_summary(self):
        project = project_of({
            "src/app/state.py": """
            CACHE = {}

            def poke(key):
                CACHE[key] = 1

            def outer(key):
                return poke(key)
            """,
        })
        effects = self._effects(project)
        assert not effects.direct["app.state.outer"].writes_global
        assert ("app.state.CACHE", "app.state.poke") in (
            effects.effects_of("app.state.outer").writes_global
        )

    def test_plain_local_rebinding_is_not_a_global_write(self):
        project = project_of({
            "src/app/state.py": """
            LIMIT = 5

            def shadow():
                LIMIT = 9
                return LIMIT

            def declared():
                global LIMIT
                LIMIT = 9
            """,
        })
        effects = self._effects(project)
        assert not effects.direct["app.state.shadow"].writes_global
        assert effects.direct["app.state.declared"].writes_global

    def test_clock_taint_flows_through_returns(self):
        project = project_of({
            "src/app/clocks.py": """
            import time

            def now():
                return time.time()

            def indirect():
                stamp = now()
                return stamp
            """,
        })
        effects = self._effects(project)
        assert effects.returns_clock["app.clocks.now"]
        assert effects.returns_clock["app.clocks.indirect"]

    def test_clock_assigned_in_a_block_taints_the_return(self):
        """The return sits above the assignment in the walk's order."""
        project = project_of({
            "src/app/clocks.py": """
            import time

            def stamp(live):
                if live:
                    now = time.time()
                else:
                    now = 0.0
                return now
            """,
        })
        effects = self._effects(project)
        assert effects.returns_clock["app.clocks.stamp"]

    def test_clock_reads_inside_lambdas_taint_their_binding(self):
        project = project_of({
            "src/app/lam.py": """
            import json
            import time

            def now():
                return time.time()

            def direct():
                read = lambda: time.time()
                return json.dumps({"at": read})

            def indirect():
                read = lambda: now()
                return json.dumps({"at": read})
            """,
        })
        effects = self._effects(project)
        assert effects.json_sink_sites == [
            ("app.lam.direct", 10, "json payload"),
            ("app.lam.indirect", 14, "json payload"),
        ]

    def test_cross_module_rng_use_lands_in_worker_summary(self):
        project = project_of({
            "src/app/streams.py": "import random\nRNG = random.Random(3)\n",
            "src/app/work.py": """
            from app import streams

            def draw():
                return streams.RNG.random()
            """,
        })
        effects = self._effects(project)
        assert ("app.streams.RNG", "app.work.draw") in (
            effects.direct["app.work.draw"].rng_uses
        )


# ---------------------------------------------------------------------------
# RPL1xx analyses end-to-end over temporary trees
# ---------------------------------------------------------------------------


class TestAnalyses:
    def test_rpl101_unseeded_origin_fires_and_seeded_is_clean(
        self, tmp_path
    ):
        result = analyze_tree(
            tmp_path,
            {
                "src/app/bad.py": (
                    "import numpy as np\n\n"
                    "def fresh():\n"
                    "    return np.random.default_rng()\n"
                ),
                "src/app/good.py": (
                    "import numpy as np\n\n"
                    "def derived(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
            },
        )
        assert [f.code for f in result.findings] == ["RPL101"]
        assert result.findings[0].path == "src/app/bad.py"

    def test_rpl102_shared_stream_across_pool_and_per_unit_spawn_clean(
        self, tmp_path
    ):
        result = analyze_tree(
            tmp_path,
            {
                "src/app/streams.py": (
                    "import random\nRNG = random.Random(11)\n"
                ),
                "src/app/bad.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "from app import streams\n\n"
                    "def draw(n):\n"
                    "    return [streams.RNG.random() for _ in range(n)]\n\n"
                    "def run(counts):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return list(pool.map(draw, counts))\n"
                ),
                "src/app/good.py": (
                    "import numpy as np\n"
                    "from concurrent.futures import ProcessPoolExecutor\n\n"
                    "def draw(child):\n"
                    "    return np.random.default_rng(child).random()\n\n"
                    "def run(seed, jobs):\n"
                    "    children = np.random.SeedSequence(seed).spawn(jobs)\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return list(pool.map(draw, children))\n"
                ),
            },
        )
        assert [f.code for f in result.findings] == ["RPL102"]
        assert result.findings[0].path == "src/app/bad.py"
        assert "app.streams.RNG" in result.findings[0].message

    def test_rpl103_interprocedural_clock_taint_and_pure_stamp_clean(
        self, tmp_path
    ):
        result = analyze_tree(
            tmp_path,
            {
                "src/app/clocks.py": (
                    "import time\n\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "src/app/bad.py": (
                    "import json\n"
                    "from app import clocks\n\n"
                    "def write_rows(rows):\n"
                    "    payload = {'at': clocks.stamp(), 'rows': rows}\n"
                    "    return json.dumps(payload)\n"
                ),
                "src/app/good.py": (
                    "import json\n\n"
                    "def write_rows(rows, snapshot_date):\n"
                    "    payload = {'at': snapshot_date, 'rows': rows}\n"
                    "    return json.dumps(payload)\n"
                ),
            },
        )
        codes = {f.code for f in result.findings}
        assert codes == {"RPL103"}
        paths = {f.path for f in result.findings}
        assert "src/app/good.py" not in paths

    def test_rpl103_clock_assigned_in_if_else_reaches_json_sink(
        self, tmp_path
    ):
        """Local taint ignores statement order: the payload line comes
        first in the breadth-first walk, the clock read inside the
        ``if`` after it."""
        result = analyze_tree(
            tmp_path,
            {
                "src/app/encode.py": (
                    "import json\n"
                    "import time\n\n"
                    "def encode(flag):\n"
                    "    if flag:\n"
                    "        now = time.time()\n"
                    "    else:\n"
                    "        now = 0.0\n"
                    "    payload = {'at': now}\n"
                    "    return json.dumps(payload)\n"
                ),
            },
        )
        assert [(f.code, f.line) for f in result.findings] == [
            ("RPL103", 10)
        ]
        assert "json payload" in result.findings[0].message

    def test_rpl104_impure_worker_flagged_and_memoized_builder_clean(
        self, tmp_path
    ):
        result = analyze_tree(
            tmp_path,
            {
                "src/app/bad.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n\n"
                    "SEEN = []\n\n"
                    "def worker(item):\n"
                    "    SEEN.append(item)\n"
                    "    return len(SEEN)\n\n"
                    "def run(items):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return [pool.submit(worker, i) for i in items]\n"
                ),
                "src/app/good.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "from functools import lru_cache\n\n"
                    "@lru_cache(maxsize=1)\n"
                    "def plan_for(config):\n"
                    "    return {'config': config}\n\n"
                    "def worker(config, item):\n"
                    "    return (plan_for(config), item)\n\n"
                    "def run(config, items):\n"
                    "    with ProcessPoolExecutor() as pool:\n"
                    "        return [pool.submit(worker, config, i)\n"
                    "                for i in items]\n"
                ),
            },
        )
        assert [f.code for f in result.findings] == ["RPL104"]
        assert result.findings[0].path == "src/app/bad.py"
        assert "app.bad.SEEN" in result.findings[0].message

    def test_rpl104_lambda_capture_mutation(self, tmp_path):
        result = analyze_tree(
            tmp_path,
            {
                "src/app/bad.py": (
                    "from concurrent.futures import ThreadPoolExecutor\n\n"
                    "def run(items):\n"
                    "    acc = []\n"
                    "    with ThreadPoolExecutor() as pool:\n"
                    "        pool.map(lambda i: acc.append(i), items)\n"
                    "    return acc\n"
                ),
            },
        )
        assert [f.code for f in result.findings] == ["RPL104"]
        assert "acc" in result.findings[0].message


# ---------------------------------------------------------------------------
# The seeded fixture package: true positives per-file lint cannot see
# ---------------------------------------------------------------------------


class TestFixturePackage:
    def test_every_analysis_fires_on_its_planted_hazard(self):
        result = demo_result()
        assert {f.code for f in result.findings} == set(DEMO_CODES)

    def test_per_file_replint_is_blind_to_every_hazard(self):
        """The reason repgraph exists: replint passes this package."""
        config = LintConfig(root=str(DEMO_ROOT))
        lint = run_lint(["demo"], config=config, use_baseline=False)
        assert lint.files_checked == 6
        assert lint.findings == [], "\n".join(
            f.format() for f in lint.findings
        )

    def test_repo_config_excludes_the_fixture_package(self):
        config = LintConfig.load(str(ROOT))
        files = collect_files(
            [str(ROOT / "tests" / "fixtures" / "repgraph_demo")], config
        )
        assert files == []

    def test_analysis_registry_documents_each_code(self):
        program = [rule for rule in all_rules() if rule.whole_program]
        assert [rule.code for rule in program] == list(DEMO_CODES)
        for rule in program:
            assert rule.description
            assert isinstance(rule.exempt, tuple)
        assert get_rule("RPL103").exempt == ("*/obs/clock.py",)


# ---------------------------------------------------------------------------
# Suppression: pragmas and the one baseline
# ---------------------------------------------------------------------------


class TestSuppression:
    BAD = (
        "import numpy as np\n\n"
        "def fresh():\n"
        "    return np.random.default_rng()\n"
    )

    def test_inline_pragma_silences_rpl1xx(self, tmp_path):
        silenced = self.BAD.replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # replint: disable=RPL101",
        )
        result = analyze_tree(tmp_path, {"src/app/a.py": silenced})
        assert result.findings == []

    def test_baseline_roundtrip_suppresses_known_findings(self, tmp_path):
        result = analyze_tree(tmp_path, {"src/app/a.py": self.BAD})
        assert [f.code for f in result.findings] == ["RPL101"]
        config = LintConfig(root=str(tmp_path))
        baseline_file = tmp_path / config.baseline_path
        write_baseline(str(baseline_file), result.findings)
        again = run_analysis(None, config=config, use_baseline=True)
        assert again.findings == [] and again.ok
        assert [f.code for f in again.baselined] == ["RPL101"]

    def test_exemption_globs_skip_sanctioned_paths(self, tmp_path):
        clock_src = (
            "import time\nimport json\n\n"
            "def write_now():\n"
            "    return json.dumps({'at': time.time()})\n"
        )
        result = analyze_tree(
            tmp_path,
            {
                "src/app/obs/clock.py": clock_src,
                "src/app/report.py": clock_src,
            },
        )
        flagged = {f.path for f in result.findings}
        assert flagged == {"src/app/report.py"}


# ---------------------------------------------------------------------------
# Report determinism: versioned JSON, golden pin, graph artifact
# ---------------------------------------------------------------------------


class TestReportDeterminism:
    def test_json_report_is_byte_identical_across_runs(self):
        first, second = format_json(demo_result()), format_json(
            demo_result()
        )
        assert first == second
        assert graph_json(demo_result()) == graph_json(demo_result())

    def test_json_report_matches_golden_file(self):
        """Byte-for-byte pin of the fixture package's report."""
        golden = GOLDEN_REPORT.read_text(encoding="utf-8")
        assert format_json(demo_result()) + "\n" == golden

    def test_report_shape_and_version(self):
        payload = json.loads(format_json(demo_result()))
        assert payload["version"] == REPORT_VERSION == 2
        assert set(payload["rules"]) == {rule.code for rule in all_rules()}
        summary = payload["summary"]
        assert summary["ok"] is False
        assert summary["new_errors"] == len(payload["findings"])
        assert summary["findings_by_code"]["RPL103"] == 2
        assert summary["fanout_sites"] == 2

    def test_graph_artifact_lists_sorted_edges_and_fanouts(self):
        payload = json.loads(graph_json(demo_result()))
        edges = payload["edges"]
        assert edges == sorted(
            edges, key=lambda e: (e["caller"], e["callee"], e["line"])
        )
        workers = {s["worker"] for s in payload["fanouts"]}
        assert workers == {
            "demo.workers.draw_many",
            "demo.workers.record_result",
        }

    def test_text_report_summarizes_scale(self):
        text = format_text(demo_result())
        assert "6 modules" in text and "fan-out sites" in text


# ---------------------------------------------------------------------------
# CLI: `repro check`
# ---------------------------------------------------------------------------


class TestCli:
    def _seed_project(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pyproject.toml": "[tool.replint]\npaths = [\"src\"]\n",
                "src/app/bad.py": TestSuppression.BAD,
            },
        )
        return tmp_path

    def test_analyze_reports_and_fails(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        assert cli.main(["check", "--root", str(root)]) == 1
        assert "RPL101" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        code = cli.main(
            ["check", "--root", str(root), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["findings"][0]["code"] == "RPL101"

    def test_baseline_flag_snapshots_then_passes(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        assert cli.main(["check", "--root", str(root), "--baseline"]) == 0
        assert (root / ".replint-baseline.json").is_file()
        capsys.readouterr()
        assert cli.main(["check", "--root", str(root)]) == 0
        assert cli.main(
            ["check", "--root", str(root), "--no-baseline"]
        ) == 1

    def test_out_and_graph_out_artifacts(self, tmp_path, capsys):
        root = self._seed_project(tmp_path)
        report = tmp_path / "report.json"
        graph = tmp_path / "graph.json"
        cli.main(
            [
                "check", "--root", str(root), "--format", "json",
                "--out", str(report), "--graph-out", str(graph),
            ]
        )
        on_disk = json.loads(report.read_text(encoding="utf-8"))
        assert on_disk == json.loads(capsys.readouterr().out)
        graph_payload = json.loads(graph.read_text(encoding="utf-8"))
        assert graph_payload["version"] == REPORT_VERSION
        assert set(graph_payload) >= {"edges", "fanouts", "nodes"}


# ---------------------------------------------------------------------------
# Observability: analysis.* instruments
# ---------------------------------------------------------------------------


@pytest.fixture
def global_obs():
    ctx = obs.configure(enabled=True)
    yield ctx
    ctx.configure(enabled=False)


class TestObsInstruments:
    def test_run_emits_stage_spans_and_scale_gauges(self, global_obs):
        result = demo_result()
        names = [s.name for s in global_obs.tracer.finished]
        for stage in (
            "analysis.parse",
            "analysis.callgraph",
            "analysis.effects",
            "analysis.rules",
            "analysis.run",
        ):
            assert stage in names
        registry = global_obs.registry
        assert registry.gauge("analysis.modules").value == (
            result.stats["modules"]
        )
        by_code = registry.series_values("analysis.findings")
        assert by_code == {
            "RPL101": 1.0, "RPL102": 1.0, "RPL103": 2.0, "RPL104": 1.0,
        }


# ---------------------------------------------------------------------------
# Property tests: baseline and pragma round-trips
# ---------------------------------------------------------------------------


_code_st = st.from_regex(r"RPL[0-9]{3}", fullmatch=True)
_path_st = st.from_regex(r"src/[a-z]{1,8}/[a-z]{1,8}\.py", fullmatch=True)
_findings_st = st.lists(
    st.builds(
        Finding,
        path=_path_st,
        line=st.integers(min_value=1, max_value=9999),
        col=st.integers(min_value=0, max_value=80),
        code=_code_st,
        severity=st.just(Severity.ERROR),
        message=st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd"), max_codepoint=0x7F
            ),
            min_size=1,
            max_size=40,
        ),
        source_line=st.just("x = 1"),
    ),
    max_size=8,
)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(findings=_findings_st)
    def test_baseline_save_load_roundtrip_suppresses_exactly(
        self, findings, tmp_path_factory
    ):
        """write_baseline |> load_baseline suppresses those findings
        and only those findings."""
        target = tmp_path_factory.mktemp("baseline") / "b.json"
        write_baseline(str(target), findings)
        loaded = load_baseline(str(target))
        fresh, suppressed = split_by_baseline(findings, loaded)
        assert fresh == []
        assert len(suppressed) == len(findings)
        outsider = Finding(
            path="src/zz/never.py",
            line=1,
            col=0,
            code="RPL999",
            severity=Severity.ERROR,
            message="novel",
        )
        fresh2, _ = split_by_baseline(findings + [outsider], loaded)
        assert fresh2 == [outsider]

    @settings(max_examples=100, deadline=None)
    @given(
        disabled=st.sets(_code_st, min_size=1, max_size=4),
        other=_code_st,
    )
    def test_pragma_parse_and_apply_roundtrip(self, disabled, other):
        """A disable= pragma suppresses exactly the listed codes."""
        line = "x = 1  # replint: disable=" + ",".join(sorted(disabled))
        pragmas = pragma_map([line])
        assert pragmas == {1: set(disabled)}

        def finding(code):
            return Finding(
                path="src/a/b.py",
                line=1,
                col=0,
                code=code,
                severity=Severity.ERROR,
                message="m",
            )

        kept = apply_pragmas(
            [finding(c) for c in sorted(disabled | {other})], pragmas
        )
        expected = [] if other in disabled else [other]
        assert [f.code for f in kept] == expected

    @settings(max_examples=50, deadline=None)
    @given(codes=st.sets(_code_st, min_size=0, max_size=3))
    def test_blanket_pragma_beats_any_code(self, codes):
        pragmas = pragma_map(["y = 2  # replint: disable"])
        findings = [
            Finding(
                path="src/a/b.py",
                line=1,
                col=0,
                code=code,
                severity=Severity.ERROR,
                message="m",
            )
            for code in sorted(codes)
        ]
        assert apply_pragmas(findings, pragmas) == []


# ---------------------------------------------------------------------------
# Differential: walk-once passes against the re-walking reference
# ---------------------------------------------------------------------------


def _stdlib_project() -> Project:
    stdlib = sysconfig.get_paths()["stdlib"]
    return load_project(stdlib, ["json", "http", "concurrent"])


def _clock_flow_package(rnd) -> dict:
    """Two modules of small functions that pass clock values around:
    nested blocks, lambdas, cross-module calls and json sinks."""
    names = ["a", "b", "c"]
    funcs = {m: [f"f{m}{i}" for i in range(rnd.randint(1, 3))] for m in (0, 1)}
    callees = funcs[0] + funcs[1]

    def value() -> str:
        return rnd.choice([
            "time.time()", f"{rnd.choice(callees)}()",
            f"{rnd.choice(names)} + 1", f"lambda: {rnd.choice(callees)}()",
            "lambda: time.time()", f"[{rnd.choice(names)} for _ in x]", "0",
        ])

    def block(depth: int) -> list:
        pad = "    " * (depth + 1)
        lines = []
        for _ in range(rnd.randint(1, 3)):
            kind = rnd.randrange(6)
            if kind == 0 and depth < 2:
                lines += [f"{pad}if x:", *block(depth + 1), f"{pad}else:",
                          *block(depth + 1)]
            elif kind == 1:
                lines.append(f"{pad}json.dumps({{'v': {rnd.choice(names)}}})")
            elif kind == 2:
                lines.append(f"{pad}return {rnd.choice(names)}")
            else:
                lines.append(f"{pad}{rnd.choice(names)} = {value()}")
        return lines

    files = {}
    for m, own in funcs.items():
        other = ", ".join(funcs[1 - m])
        lines = ["import json", "import time",
                 f"from app.m{1 - m} import {other}"]
        for name in own:
            lines += [f"def {name}(x=()):", *block(0)]
        files[f"src/app/m{m}.py"] = "\n".join(lines) + "\n"
    return files


class TestReferenceDifferential:
    """Stored node lists, the subclass index, the compiled taint
    program and its lazy scheduling change no analysis output."""

    @pytest.mark.parametrize(
        "load",
        [
            lambda: load_project(str(DEMO_ROOT), ["demo"]),
            lambda: load_project(
                str(ROOT), ["src"], exclude=LintConfig.load(str(ROOT)).exclude
            ),
            _stdlib_project,
        ],
        ids=["repgraph_demo", "src", "stdlib"],
    )
    def test_matches_reference(self, load):
        project = load()
        assert len(project.functions) > 5
        for module in project.modules.values():
            if module.tree is not None:
                assert module.nodes == list(scope_walk(module.tree))
        for info in project.functions.values():
            assert info.nodes == list(scope_walk(info.node))
        for name in project.classes:
            assert project.subclasses(name) == subclasses_by_mro(
                project, name
            )

        graph = build_call_graph(project)
        ref_graph = reference_call_graph(project)
        assert graph.to_dict() == ref_graph.to_dict()
        effects = EffectAnalysis(project, graph)
        ref = ReferenceEffectAnalysis(project, ref_graph)
        assert effects.direct == ref.direct
        assert effects.summary == ref.summary
        assert effects.returns_clock == ref.returns_clock
        assert effects.json_sink_sites == ref.json_sink_sites
        assert collect_findings(project, graph, effects) == (
            collect_findings(project, ref_graph, ref)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_clock_flows_match_reference(self, rnd):
        project = project_of(_clock_flow_package(rnd))
        effects = EffectAnalysis(project, build_call_graph(project))
        ref = ReferenceEffectAnalysis(project, reference_call_graph(project))
        assert effects.direct == ref.direct
        assert effects.returns_clock == ref.returns_clock
        assert effects.json_sink_sites == ref.json_sink_sites


# ---------------------------------------------------------------------------
# Acceptance: the shipped tree is proven safe to parallelize
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_src_tree_analyzes_clean_with_no_baseline(self):
        config = LintConfig.load(str(ROOT))
        result = run_analysis(
            [str(ROOT / "src")], config=config, use_baseline=False
        )
        assert result.stats["modules"] > 100
        assert result.stats["fanout_sites"] >= 1
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings
        )

    def test_cli_src_tree_clean_and_deterministic(self, capsys):
        args = [
            "check", str(ROOT / "src"), "--root", str(ROOT),
            "--format", "json",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_repo_analysis_baseline_is_absent_or_empty(self):
        """Both families share ``.replint-baseline.json``; the retired
        second baseline file must not come back."""
        assert not (ROOT / ".repgraph-baseline.json").exists()
