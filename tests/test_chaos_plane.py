"""Chaos plane: fault-plan DSL, injector determinism, the contract
oracles, and the scenario-zoo campaign.

The contract cells of all five zoo scenarios, their fault ledgers and
the chaos-recovery cells run once through ``run_matrix`` and must equal
``tests/golden/contract_cells.json``, written from the degradation
report of the last version that had a separate chaos harness.  One zoo
scenario (``flash-crowd``) also runs through ``repro testkit run``, whose
report must equal the library's.
"""

import ast
import json
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.injectors import inject_telemetry
from repro.chaos.plan import (
    LAYER_KINDS,
    PLAN_VERSION,
    RECOVERABLE_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Layer,
    Window,
)
from repro.cli import main
from repro.constants import ContentType
from repro.errors import ChaosError, TestkitError
from repro.telemetry.ingest import events_from_records
from repro.telemetry.records import ViewRecord
from repro.testkit.oracles import (
    PASS,
    Oracle,
    get_oracle,
    oracle,
    oracles_by_kind,
    run_oracle,
)
from repro.testkit.report import run_matrix
from repro.testkit.scenario import ScenarioRun, chaos_scenarios, get_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "contract_cells.json"

ZOO = (
    "abr-policy-zoo",
    "flash-crowd",
    "low-end-device-fleet",
    "protocol-migration-wave",
    "regional-cdn-outage",
)


def _contracts():
    return oracles_by_kind("contract")


def _records(n=12):
    return [
        ViewRecord(
            snapshot=date(2018, 3, 12),
            publisher_id=f"pub_{i % 3:03d}",
            url="http://a.cdn.example.net/vid/master.m3u8",
            device_model="roku-ultra",
            os_name="roku",
            cdn_names=("A",),
            bitrate_ladder_kbps=(150.0, 600.0),
            view_duration_hours=0.01 + i * 0.001,
            avg_bitrate_kbps=600.0,
            rebuffer_ratio=0.02,
            content_type=ContentType.VOD,
            video_id=f"vid_{i:04d}",
        )
        for i in range(n)
    ]


def _plan(*specs, name="unit", seed=7):
    return FaultPlan(name=name, seed=seed, specs=tuple(specs))


@pytest.mark.chaos
class TestFaultPlanDsl:
    def test_round_trips_through_versioned_json(self):
        plan = _plan(
            FaultSpec(FaultKind.DUPLICATE, Layer.TELEMETRY,
                      Window(0.0, 0.5), intensity=0.1),
            FaultSpec(FaultKind.OUTAGE, Layer.DELIVERY,
                      Window(0.2, 0.8), intensity=0.9, target="R12"),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert plan.to_payload()["version"] == PLAN_VERSION

    def test_unsupported_version_rejected(self):
        payload = _plan().to_payload()
        payload["version"] = PLAN_VERSION + 1
        with pytest.raises(ChaosError):
            FaultPlan.from_payload(payload)

    def test_malformed_json_and_payloads_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ChaosError):
            FaultPlan.from_json("[]")
        with pytest.raises(ChaosError):
            FaultPlan.from_payload({"version": PLAN_VERSION, "seed": 1})

    @pytest.mark.parametrize("start,end", [(0.5, 0.5), (0.6, 0.2),
                                           (-0.1, 0.5), (0.0, 1.5)])
    def test_degenerate_windows_rejected(self, start, end):
        with pytest.raises(ChaosError):
            Window(start, end)

    def test_window_index_math(self):
        assert Window(0.2, 0.5).indices(10) == (2, 5)
        assert Window(0.0, 1.0).indices(0) == (0, 0)
        # A sliver of a window still covers at least one tick.
        i0, i1 = Window(0.5, 0.501).indices(10)
        assert i1 == i0 + 1

    def test_kind_layer_legality_enforced(self):
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.OUTAGE, Layer.TELEMETRY)
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.DROP, Layer.MANIFEST)
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.MALFORM, Layer.TELEMETRY)
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.INTERLEAVE, Layer.MANIFEST)
        for layer, kinds in LAYER_KINDS.items():
            for kind in kinds:
                target = "A" if layer is Layer.DELIVERY else None
                FaultSpec(kind, layer, target=target)  # must not raise

    def test_delivery_faults_need_a_target(self):
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.OUTAGE, Layer.DELIVERY)

    @pytest.mark.parametrize("intensity", [0.0, -0.5, 1.5])
    def test_intensity_bounds_enforced(self, intensity):
        with pytest.raises(ChaosError):
            FaultSpec(FaultKind.DROP, Layer.TELEMETRY, intensity=intensity)

    def test_spec_seeds_are_stable_and_distinct(self):
        specs = [
            FaultSpec(FaultKind.DROP, Layer.TELEMETRY, intensity=0.1),
            FaultSpec(FaultKind.DUPLICATE, Layer.TELEMETRY, intensity=0.1),
        ]
        plan = _plan(*specs)
        seeds = [plan.spec_seed(s) for s in plan.specs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [plan.spec_seed(s) for s in plan.specs]
        foreign = FaultSpec(FaultKind.TRUNCATE, Layer.TELEMETRY)
        with pytest.raises(ChaosError):
            plan.spec_seed(foreign)

    def test_projections(self):
        plan = _plan(
            FaultSpec(FaultKind.DUPLICATE, Layer.TELEMETRY, intensity=0.1),
            FaultSpec(FaultKind.NEGATIVE_TIMING, Layer.TELEMETRY,
                      intensity=0.1),
            FaultSpec(FaultKind.OUTAGE, Layer.DELIVERY, target="A"),
        )
        recoverable = plan.recoverable()
        assert all(s.kind in RECOVERABLE_KINDS for s in recoverable.specs)
        assert len(recoverable.specs) == 2
        assert recoverable.seed == plan.seed
        only = plan.only(Layer.DELIVERY)
        assert [s.layer for s in only.specs] == [Layer.DELIVERY]
        assert plan.baseline().specs == ()
        assert plan.layers() == [Layer.DELIVERY, Layer.TELEMETRY]


@pytest.mark.chaos
class TestTelemetryInjectorDeterminism:
    def test_same_plan_same_stream(self):
        events = list(events_from_records(_records()))
        plan = _plan(
            FaultSpec(FaultKind.DUPLICATE, Layer.TELEMETRY,
                      Window(0.0, 0.5), intensity=0.2),
            FaultSpec(FaultKind.REORDER_START, Layer.TELEMETRY,
                      Window(0.2, 0.9), intensity=0.4),
        )
        first = inject_telemetry(events, plan)
        second = inject_telemetry(events, plan)
        assert first.events == second.events
        assert first.injected == second.injected
        assert first.total_injected > 0

    def test_different_seed_different_stream(self):
        events = list(events_from_records(_records()))
        spec = FaultSpec(FaultKind.DROP, Layer.TELEMETRY, intensity=0.3)
        first = inject_telemetry(events, _plan(spec, seed=1))
        second = inject_telemetry(events, _plan(spec, seed=2))
        assert first.events != second.events

    def test_empty_plan_is_identity(self):
        events = list(events_from_records(_records()))
        result = inject_telemetry(events, _plan())
        assert result.events == events
        assert result.total_injected == 0


@pytest.mark.chaos
class TestContractFramework:
    def test_passing_contract_reports_summary_and_checks(self):
        def body(run, check):
            check.that(True, "a")
            check.that(True, "b")
            return "verified two things"

        target = Oracle(
            name="unit-pass", kind="contract", description="unit", fn=body
        )
        # Never built: the body does not touch the scenario.
        outcome = run_oracle(target, ScenarioRun(get_scenario("flash-crowd")))
        assert outcome.status == PASS
        assert outcome.kind == "contract"
        assert outcome.checks == 2
        assert outcome.detail == "verified two things"

    def test_duplicate_names_and_empty_scopes_rejected(self):
        existing = _contracts()[0].name
        with pytest.raises(TestkitError, match="duplicate"):
            oracle("contract", existing, "dup")(lambda run, check: "")
        with pytest.raises(TestkitError, match="scope"):
            oracle("contract", "unit-unscoped", "no scope", scenarios=())

    def test_a_contract_cell_needs_a_plan_and_the_scope(self):
        scoped = get_oracle("flash-crowd-shares")
        assert scoped.applies_to(get_scenario("flash-crowd"))
        assert not scoped.applies_to(get_scenario("regional-cdn-outage"))
        universal = get_oracle("no-silent-leaks")
        assert universal.scenarios == ("*",)
        assert universal.applies_to(get_scenario("regional-cdn-outage"))
        # "*" still means every *plan-bearing* scenario ...
        assert not universal.applies_to(get_scenario("tiny"))
        # ... while the other kinds keep a cell (and skip inside it).
        assert get_oracle("chaos-recovery").applies_to(get_scenario("tiny"))


@pytest.mark.chaos
class TestScenarioZoo:
    def test_five_scenarios_carry_chaos_plans(self):
        assert tuple(spec.name for spec in chaos_scenarios()) == ZOO

    def test_every_plan_serializes_and_round_trips(self):
        for name in ZOO:
            plan = get_scenario(name).chaos_plan
            assert FaultPlan.from_json(plan.to_json()) == plan
            assert plan.specs  # a chaos scenario without faults is a bug

    def test_universal_contracts_cover_every_scenario(self):
        universal = {"breaker-reclose", "no-silent-leaks"}
        for name in ZOO:
            spec = get_scenario(name)
            applicable = {c.name for c in _contracts() if c.applies_to(spec)}
            assert universal <= applicable
            # Each zoo scenario also carries a scenario-specific contract.
            assert len(applicable) > len(universal)

    def test_import_order_is_symmetric(self):
        # The zoo registers once whether it or its package loads
        # first; both orders must agree on the registry contents.
        probe = (
            "import repro.{first}, repro.{second}\n"
            "from repro.testkit.oracles import oracles_by_kind\n"
            "from repro.testkit.scenario import chaos_scenarios\n"
            "print(len(chaos_scenarios()), "
            "len(oracles_by_kind('contract')))\n"
        )
        outputs = set()
        for first, second in (
            ("testkit.zoo", "testkit"), ("testkit", "testkit.zoo")
        ):
            result = subprocess.run(
                [sys.executable, "-c",
                 probe.format(first=first, second=second)],
                capture_output=True, text=True, check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        scenarios, contracts = outputs.pop().split()
        assert int(scenarios) == len(ZOO)
        assert int(contracts) == 7


def _loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    probe = (
        f"import sys\n{code}\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
    )
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_loads_neither_chaos_nor_testkit():
    # `repro ingest` imports the chaos plane inside its handler.
    code = "import repro.cli"
    assert _loaded_after(code, ("repro.chaos", "repro.testkit")) == "[]"


def test_chaos_plan_and_injectors_load_no_testkit():
    code = "import repro.chaos.plan, repro.chaos.injectors"
    assert _loaded_after(code, ("repro.testkit",)) == "[]"


def test_no_chaos_module_imports_the_testkit():
    # The testkit imports the chaos plane, never the reverse, so the
    # package graph stays acyclic.
    chaos = Path(__file__).resolve().parent.parent / "src/repro/chaos"
    offenders = []
    for path in sorted(chaos.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            offenders += [
                f"{path.name}: {module}"
                for module in modules
                if module == "repro.testkit"
                or module.startswith("repro.testkit.")
            ]
    assert offenders == []


def test_static_checker_loads_neither_numpy_nor_scipy():
    code = "import repro.lint.engine, repro.analysis.engine"
    assert _loaded_after(code, ("numpy", "scipy")) == "[]"


def test_check_command_loads_neither_numpy_nor_scipy():
    root = Path(__file__).resolve().parent.parent
    argv = ["check", "--root", str(root), str(root / "src/repro/units.py")]
    code = f"from repro.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, ("numpy", "scipy")) == "[]"


def test_synthesis_and_figures_load_no_scipy():
    # scipy is a test dependency only: synthesis draws durations
    # through the Cephes ndtri port.
    code = (
        "import repro.cli, repro.figures, repro.testkit.report\n"
        "from repro.synthesis.calibration import EcosystemConfig\n"
        "from repro.synthesis.generator import EcosystemGenerator\n"
        "config = EcosystemConfig(\n"
        "    seed=2018, n_publishers=20, snapshot_limit=2, qoe_sessions=10\n"
        ")\n"
        "assert len(EcosystemGenerator(config).generate().dataset)\n"
        "assert repro.cli.main(['figures']) == 0\n"
    )
    assert _loaded_after(code, ("scipy",)) == "[]"


@pytest.mark.chaos
class TestContractCells:
    """The zoo's contract cells, ledgers and recovery cells, pinned."""

    @pytest.fixture(scope="class")
    def report(self):
        oracles = _contracts() + [get_oracle("chaos-recovery")]
        return run_matrix(scenarios=list(ZOO), oracles=oracles)

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    def test_contract_cells_match_golden(self, report, golden):
        cells = [
            {
                "scenario": o.scenario,
                "contract": o.oracle,
                "status": o.status,
                "checks": o.checks,
                "detail": o.detail,
            }
            for o in report.outcomes
            if o.kind == "contract"
        ]
        assert cells == sorted(
            golden["cells"], key=lambda c: (c["scenario"], c["contract"])
        )

    def test_ledgers_and_plans_match_golden(self, report, golden):
        assert sorted(report.chaos) == list(ZOO)
        for name, entry in report.chaos.items():
            assert entry["ledger"] == golden["ledgers"][name], name
            assert entry["plan"] == get_scenario(name).chaos_plan.to_payload()

    def test_recovery_cells_match_golden(self, report, golden):
        cells = [
            {
                "scenario": o.scenario,
                "oracle": o.oracle,
                "status": o.status,
                "checks": o.checks,
                "detail": o.detail,
            }
            for o in report.outcomes
            if o.oracle == "chaos-recovery"
        ]
        assert cells == golden["recovery"]


@pytest.mark.chaos
class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_matrix(scenarios=["flash-crowd"], oracles=_contracts())

    def test_flash_crowd_degrades_gracefully(self, report):
        assert report.ok
        assert report.failed == 0
        assert report.passed > 0
        assert report.checks > 0
        assert {o.kind for o in report.outcomes} == {"contract"}

    def test_ledger_covers_planned_layers_without_leaks(self, report):
        ledger = report.chaos["flash-crowd"]["ledger"]
        plan = get_scenario("flash-crowd").chaos_plan
        assert sorted(ledger) == [l.value for l in plan.layers()]
        for layer, counts in ledger.items():
            assert counts["leaked"] == 0, layer
        assert sum(c["injected"] for c in ledger.values()) > 0

    def test_report_and_cli_run_are_identical(self, report, tmp_path, capsys):
        out = tmp_path / "oracle-report.json"
        oracle_args = []
        for contract in _contracts():
            oracle_args += ["--oracle", contract.name]
        code = main(
            ["testkit", "run", "--scenario", "flash-crowd", *oracle_args,
             "--json", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text()) == report.to_payload()
        assert json.loads(capsys.readouterr().out) == report.to_payload()

    def test_unknown_scenario_is_a_typed_error(self):
        with pytest.raises(TestkitError):
            run_matrix(scenarios=["not-a-scenario"], oracles=_contracts())


def _plan_json(name="unit", seed=7, window=(0.0, 1.0)):
    """A one-spec plan document with raw (possibly invalid) fields."""
    return json.dumps(
        {
            "version": PLAN_VERSION,
            "name": name,
            "seed": seed,
            "specs": [
                {"kind": "drop", "layer": "telemetry", "window": window}
            ],
        }
    )


@pytest.mark.chaos
@pytest.mark.parametrize(
    "case, needle",
    [
        (["testkit", "run", "--scenario", "tiny", "--oracle",
          "no-silent-leaks"], "scenario(s) 'tiny'"),
        (lambda: run_matrix(["tiny"], _contracts()), "scenario(s) 'tiny'"),
        (_plan_json(window=["a", "b"]), "window"),
        (_plan_json(window=[None, 1]), "window"),
        ('{"version": 1, "name": "unit", "seed": Infinity}', "seed"),
        (_plan_json(seed=1.5), "seed"),
        (_plan_json(seed=True), "seed"),
        (_plan_json(name=None), "name"),
    ],
    ids=[
        "cli-matrix-without-cell",
        "matrix-without-cell",
        "window-strings",
        "window-null",
        "seed-infinity",
        "seed-float",
        "seed-bool",
        "name-null",
    ],
)
def test_chaos_boundaries_raise_typed_located_errors(case, needle, capsys):
    """Each bad input raises ChaosError/TestkitError naming the field or
    scenario; through the CLI that is exit 2 with the message."""
    if isinstance(case, list):
        assert main(case) == 2
        assert needle in capsys.readouterr().err
        return
    with pytest.raises((ChaosError, TestkitError)) as caught:
        if callable(case):
            case()
        else:
            FaultPlan.from_json(case)
    assert needle in str(caught.value)


@pytest.mark.chaos
@pytest.mark.parametrize(
    "text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-int"]
)
def test_plan_json_the_decoder_cannot_hold_is_a_chaos_error(text):
    with pytest.raises(ChaosError, match="not valid JSON"):
        FaultPlan.from_json(text)


#: Any JSON value, numbers past float range included.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**308, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
#: Spec payloads whose kind and layer are real names in any pairing,
#: wrong layers included; each other field is valid or any JSON value.
_SPECS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from([kind.value for kind in FaultKind]),
        "layer": st.sampled_from([layer.value for layer in Layer]),
    },
    optional={
        "window": st.one_of(st.lists(st.floats(0.0, 1.0), max_size=3), _JSON),
        "intensity": st.one_of(st.floats(0.0, 1.0), _JSON),
        "target": st.one_of(st.just("A"), _JSON),
    },
)
_PLANS = st.fixed_dictionaries(
    {
        "version": st.one_of(st.just(PLAN_VERSION), _JSON),
        "name": st.one_of(st.just("fuzz"), _JSON),
        "seed": st.one_of(st.integers(), _JSON),
        "specs": st.one_of(st.lists(_SPECS, max_size=4), _JSON),
    }
)


@pytest.mark.chaos
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _PLANS.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=30)
    )
)
def test_plan_json_fuzz_only_chaos_error_escapes(text):
    try:
        plan = FaultPlan.from_json(text)
    except ChaosError:
        return
    assert FaultPlan.from_json(plan.to_json()) == plan
