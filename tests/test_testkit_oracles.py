"""The scenario x oracle matrix, as a pytest suite (``-m testkit``).

Each (scenario, oracle) cell the matrix would build is its own test,
so a violated relation fails alone with the oracle's message.  Builds
are shared per scenario through a module-level :class:`ScenarioRun`
cache, mirroring what ``repro testkit run`` does in one process.

Tier-1 runs the two fast scenarios (``tiny``, ``fault-heavy`` — the
pair that exercises every differential and metamorphic oracle,
including the ingest replay).  Neither declares a fault plan, so the
contract oracles get no cell here.  The CI testkit job additionally
runs the full matrix through the CLI and archives the JSON report.
"""

import json

import pytest

from repro.cli import main
from repro.entities.ladder import BitrateLadder
from repro.testkit.differential import _sample_ladders
from repro.testkit.oracles import (
    FAIL,
    SKIP,
    get_oracle,
    oracle_names,
    oracles_by_kind,
    run_oracle,
)
from repro.testkit.scenario import get_scenario, run_scenario

pytestmark = pytest.mark.testkit

SCENARIOS = ("tiny", "fault-heavy")

_RUNS = {}


def _run_for(name):
    if name not in _RUNS:
        _RUNS[name] = run_scenario(get_scenario(name))
    return _RUNS[name]


#: Cells where the oracle legitimately does not apply.
EXPECTED_SKIPS = {
    ("tiny", "fault-ingest-replay"),
    ("tiny", "chaos-recovery"),
    ("fault-heavy", "chaos-recovery"),
}

#: Oracles that no fast scenario can exercise; each names the suite
#: that runs it non-vacuously instead (chaos scenarios carry plans,
#: tiny/fault-heavy deliberately do not).
DELEGATED = {
    "chaos-recovery": "tests/test_chaos_plane.py",
    **{
        contract.name: "tests/test_chaos_plane.py"
        for contract in oracles_by_kind("contract")
    },
}

#: The cells the matrix builds for the fast scenarios.
CELLS = [
    (scenario, name)
    for name in oracle_names()
    for scenario in SCENARIOS
    if get_oracle(name).applies_to(get_scenario(scenario))
]


@pytest.mark.parametrize(
    "scenario, oracle_name",
    CELLS,
    ids=[f"{name}-{scenario}" for scenario, name in CELLS],
)
def test_oracle_cell(scenario, oracle_name):
    outcome = run_oracle(get_oracle(oracle_name), _run_for(scenario))
    assert outcome.status != FAIL, outcome.detail
    if (scenario, oracle_name) in EXPECTED_SKIPS:
        assert outcome.status == SKIP, outcome.detail
    else:
        assert outcome.checks > 0, "applicable oracle verified nothing"


def test_manifest_roundtrip_samples_the_first_distinct_ladders():
    """The manifest oracle encodes the first three distinct ladders in
    record order, the ones a walk over the records meets first."""
    run = _run_for("tiny")
    seen = []
    for record in run.result.dataset.records:
        if record.bitrate_ladder_kbps not in seen:
            seen.append(record.bitrate_ladder_kbps)
    assert len(seen) > 3
    assert _sample_ladders(run) == [
        BitrateLadder.from_bitrates(bitrates) for bitrates in seen[:3]
    ]


def test_fast_scenarios_cover_every_oracle():
    """tiny + fault-heavy exercise every oracle non-vacuously, except
    those explicitly delegated to another suite."""
    exercised = {
        name
        for scenario, name in CELLS
        if (scenario, name) not in EXPECTED_SKIPS
    }
    assert set(oracle_names()) - exercised == set(DELEGATED)


def test_cli_testkit_run_emits_machine_readable_report(capsys, tmp_path):
    out = tmp_path / "oracle-report.json"
    code = main(
        [
            "testkit",
            "run",
            "--scenario",
            "tiny",
            "--oracle",
            "save-load-roundtrip",
            "--oracle",
            "seed-sensitivity",
            "--json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert payload["scenarios"] == ["tiny"]
    assert json.loads(out.read_text()) == payload


def test_cli_testkit_rejects_unknown_scenario(capsys):
    code = main(["testkit", "run", "--scenario", "nope"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err
