"""Unit tests for the testkit DSL: specs, registry, Check, runner, report.

These are fast (no ecosystem builds except where explicitly noted) and
run in tier-1; the expensive scenario x oracle matrix lives in
``test_testkit_oracles.py`` behind the ``testkit`` marker.
"""

import math

import pytest

from repro.errors import ChaosError, OracleFailure, TestkitError
from repro.testkit.oracles import (
    FAIL,
    PASS,
    SKIP,
    Check,
    Oracle,
    OracleOutcome,
    Skip,
    get_oracle,
    oracle,
    oracles_by_kind,
    run_oracle,
)
from repro.testkit.report import OracleReport, run_matrix
from repro.testkit.scenario import (
    IngestSpec,
    ScenarioRun,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)


def _spec(**overrides):
    base = dict(
        name="unit",
        description="unit-test scenario",
        seed=1,
        alt_seed=2,
        snapshot_limit=2,
        n_publishers=20,
        qoe_sessions=10,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- spec validation -------------------------------------------------------


def test_spec_rejects_whitespace_name():
    with pytest.raises(TestkitError, match="no spaces"):
        _spec(name="bad name")


def test_spec_rejects_equal_seeds():
    with pytest.raises(TestkitError, match="alt_seed"):
        _spec(alt_seed=1)


def test_spec_rejects_unknown_figures():
    with pytest.raises(TestkitError, match="F99zz"):
        _spec(figure_ids=("F2a", "F99zz"))


def test_spec_figures_defaults_to_all_registered():
    from repro import figures

    assert _spec().figures() == tuple(figures.figure_ids())
    assert _spec(figure_ids=("F2a",)).figures() == ("F2a",)


def test_spec_config_carries_seed_override():
    spec = _spec()
    assert spec.config().seed == 1
    assert spec.config(seed=99).seed == 99
    assert spec.config().n_publishers == 20


def test_ingest_spec_validation():
    with pytest.raises(TestkitError, match="sessions"):
        IngestSpec(sessions=0)
    with pytest.raises(ChaosError, match="fault rate"):
        IngestSpec(fault_rate=1.5)
    assert IngestSpec(fault_rate=0.0).fault_rate == 0.0
    assert IngestSpec(fault_rate=1.0).fault_rate == 1.0


# -- registry --------------------------------------------------------------


def test_scenario_registry_knows_the_four_shipped_scenarios():
    assert set(scenario_names()) >= {
        "tiny",
        "paper-shaped",
        "fault-heavy",
        "syndication-heavy",
    }
    assert get_scenario("tiny").snapshot_limit == 2


def test_unknown_scenario_names_the_known_ones():
    with pytest.raises(TestkitError, match="tiny"):
        get_scenario("nope")


def test_duplicate_scenario_rejected():
    with pytest.raises(TestkitError, match="duplicate"):
        register_scenario(_spec(name="tiny"))


def test_oracle_registry_covers_both_kinds():
    differential = {o.name for o in oracles_by_kind("differential")}
    metamorphic = {o.name for o in oracles_by_kind("metamorphic")}
    assert "row-vs-columnar" in differential
    assert "serial-vs-parallel" in differential
    assert "permutation-invariance" in metamorphic
    assert "seed-sensitivity" in metamorphic
    assert not differential & metamorphic


def test_unknown_oracle_raises():
    with pytest.raises(TestkitError, match="unknown oracle"):
        get_oracle("nope")


def test_duplicate_oracle_name_rejected():
    with pytest.raises(TestkitError, match="duplicate"):
        oracle("differential", "row-vs-columnar", "dup")(lambda r, c: "")


def test_unknown_oracle_kind_rejected():
    with pytest.raises(TestkitError, match="kind"):
        oracle("quantum", "novel", "bad kind")


# -- Check helper ----------------------------------------------------------


def test_check_counts_and_raises_on_first_violation():
    check = Check()
    check.that(True, "fine")
    check.equal(3, 3, "threes")
    with pytest.raises(OracleFailure, match="threes vs four"):
        check.equal(3, 4, "threes vs four")
    assert check.count == 3


def test_check_close_handles_nan_pairs():
    check = Check()
    check.close(float("nan"), float("nan"), "nan==nan")
    with pytest.raises(OracleFailure, match="NaN"):
        check.close(float("nan"), 1.0, "nan vs one")


def test_rows_equal_exact_mode_accepts_nan_cells():
    check = Check()
    rows = [{"x": float("nan"), "label": "a"}]
    check.rows_equal(rows, [{"x": float("nan"), "label": "a"}], "nan rows")
    with pytest.raises(OracleFailure, match="col x"):
        check.rows_equal(rows, [{"x": 1.0, "label": "a"}], "nan rows")


def test_rows_equal_exact_mode_rejects_float_drift():
    check = Check()
    with pytest.raises(OracleFailure):
        check.rows_equal([{"x": 1.0}], [{"x": 1.0 + 1e-12}], "drift")
    # ... which the tolerant mode absorbs.
    check.rows_equal([{"x": 1.0}], [{"x": 1.0 + 1e-12}], "drift", rel=1e-9)


def test_rows_equal_reports_shape_mismatches():
    check = Check()
    with pytest.raises(OracleFailure, match="1 rows != 2 rows"):
        check.rows_equal([{"x": 1}], [{"x": 1}, {"x": 2}], "shape")
    with pytest.raises(OracleFailure, match="columns"):
        check.rows_equal([{"x": 1}], [{"y": 1}], "cols")


def test_dicts_close_names_the_asymmetric_keys():
    check = Check()
    with pytest.raises(OracleFailure, match="only-left=\\['a'\\]"):
        check.dicts_close({"a": 1.0}, {"b": 1.0}, "keys")


# -- runner ----------------------------------------------------------------


def _toy_oracle(fn, name="toy"):
    return Oracle(name=name, kind="differential", description="toy", fn=fn)


def _lazy_run():
    # Never built: the toy oracles below don't touch the dataset.
    return ScenarioRun(get_scenario("tiny"))


def test_run_oracle_pass_skip_fail_statuses():
    def passing(run, check):
        check.that(True, "ok")
        return "compared one thing"

    def skipping(run, check):
        raise Skip("not applicable here")

    def failing(run, check):
        check.that(False, "expected inequality violated")
        return "unreachable"

    run = _lazy_run()
    ok = run_oracle(_toy_oracle(passing), run)
    assert (ok.status, ok.checks, ok.detail) == (PASS, 1, "compared one thing")
    assert ok.passed
    skip = run_oracle(_toy_oracle(skipping), run)
    assert (skip.status, skip.detail) == (SKIP, "not applicable here")
    assert skip.passed  # vacuously
    fail = run_oracle(_toy_oracle(failing), run)
    assert fail.status == FAIL and not fail.passed
    assert "expected inequality violated" in fail.detail


def test_run_oracle_flags_vacuous_pass_as_harness_bug():
    outcome = run_oracle(_toy_oracle(lambda r, c: "did nothing"), _lazy_run())
    assert outcome.status == FAIL
    assert "no checks" in outcome.detail


def test_run_oracle_converts_library_errors_to_failures():
    def exploding(run, check):
        check.that(True, "warm-up")
        raise TestkitError("stage blew up")

    outcome = run_oracle(_toy_oracle(exploding), _lazy_run())
    assert outcome.status == FAIL
    assert "TestkitError" in outcome.detail


def test_run_oracle_lets_programming_errors_propagate():
    def buggy(run, check):
        raise ZeroDivisionError("oracle bug")

    with pytest.raises(ZeroDivisionError):
        run_oracle(_toy_oracle(buggy), _lazy_run())


# -- scenario run caching --------------------------------------------------


def test_scenario_run_requires_ingest_spec_for_corruption():
    run = ScenarioRun(get_scenario("tiny"))
    with pytest.raises(TestkitError, match="no ingest stage"):
        run.corrupted_events()


def test_unknown_build_variant_rejected():
    run = ScenarioRun(get_scenario("tiny"))
    with pytest.raises(TestkitError, match="variant"):
        run._build("turbo")


# -- report ----------------------------------------------------------------


def _outcome(status, scenario="tiny", oracle="toy", checks=1):
    return OracleOutcome(
        oracle=oracle,
        kind="differential",
        scenario=scenario,
        status=status,
        checks=checks,
        detail=f"{status} detail",
    )


def test_report_counts_and_ok():
    report = OracleReport(
        outcomes=(_outcome(PASS), _outcome(SKIP, oracle="other"))
    )
    assert (report.passed, report.failed, report.skipped) == (1, 0, 1)
    assert report.ok
    assert not OracleReport(outcomes=()).ok  # nothing passed
    assert not OracleReport(
        outcomes=(_outcome(PASS), _outcome(FAIL, oracle="bad"))
    ).ok


def test_report_payload_is_deterministic_and_versioned():
    report = OracleReport(
        outcomes=(
            _outcome(PASS, scenario="b", oracle="z"),
            _outcome(FAIL, scenario="a", oracle="y", checks=7),
        )
    )
    payload = report.to_payload()
    assert payload["version"] == 2
    assert payload["chaos"] == {}  # no contract ran
    assert payload["scenarios"] == ["a", "b"]
    ordered = [(o["scenario"], o["oracle"]) for o in payload["outcomes"]]
    assert ordered == sorted(ordered)
    assert payload["summary"] == {
        "pass": 1,
        "fail": 1,
        "skip": 0,
        "checks": 8,
        "ok": False,
    }
    assert report.to_json() == report.to_json()


def test_report_format_text_names_failures():
    report = OracleReport(
        outcomes=(_outcome(FAIL, oracle="broken"), _outcome(PASS))
    )
    text = report.format_text()
    assert "FAIL tiny/broken" in text
    assert "FAILED: 1 passed, 1 failed" in text
    assert math.isfinite(report.checks)


def test_run_matrix_resolves_names_and_rejects_unknown():
    def trivial(run, check):
        check.equal(run.spec.name, "tiny", "scenario routing")
        return "routed"

    toy = Oracle(
        name="routing",
        kind="differential",
        description="toy",
        fn=trivial,
        scenarios=("tiny",),
    )
    report = run_matrix(scenarios=["tiny"], oracles=[toy])
    assert report.ok and report.passed == 1
    assert report.outcomes[0].scenario == "tiny"
    # A spec is used as given; no scenarios means every registered one.
    by_spec = run_matrix(scenarios=[get_scenario("tiny")], oracles=[toy])
    by_default = run_matrix(oracles=[toy])
    assert by_spec.outcomes == by_default.outcomes == report.outcomes
    with pytest.raises(TestkitError, match="unknown scenario"):
        run_matrix(scenarios=["nope"], oracles=[])
    with pytest.raises(TestkitError, match="unknown oracle"):
        run_matrix(scenarios=["tiny"], oracles=["nope"])
