"""Serial-vs-parallel parity for the figure suite, testkit matrix,
and the CLI's shared ``--jobs`` flag.

These are the end-to-end halves of the :mod:`repro.parallel`
contract: the unit layer (tests/test_parallel_layer.py) proves the
pool machinery is ordered and deterministic; this module proves the
actual shipped surfaces — ``repro figures --run --jobs N`` and
``repro testkit run --jobs N`` — emit byte-identical artifacts at any
worker count.
"""

import pytest

from repro import figures, obs
from repro.cli import main
from repro.synthesis.calibration import EcosystemConfig
from repro.testkit.report import run_matrix

pytestmark = pytest.mark.perf

SMALL = EcosystemConfig(seed=2018, snapshot_limit=2, n_publishers=20)

#: A representative figure slice: one per backing analysis family,
#: kept small so the suite parity check stays minutes-not-hours.
FIGURE_SLICE = ["T1", "F2a", "F11b", "F17", "S44"]


class TestFigureSuiteParallel:
    def test_suite_parallel_matches_serial(self):
        serial = figures.run_suite(SMALL, ids=FIGURE_SLICE, jobs=1)
        pooled = figures.run_suite(SMALL, ids=FIGURE_SLICE, jobs=2)
        # repr-level comparison: a handful of figure cells are NaN
        # (undefined shares on thinned builds), and NaN breaks dict
        # equality exactly when values cross the pickle boundary.  The
        # shipped artifact is the rendered rows, so compare that form.
        assert repr(serial) == repr(pooled)
        assert list(serial) == FIGURE_SLICE

    def test_suite_defaults_to_all_figures(self):
        suite = figures.run_suite(SMALL, ids=["T1"], jobs=1)
        assert set(suite) == {"T1"}

    def test_unknown_ids_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            figures.run_suite(SMALL, ids=["T1", "F99"], jobs=1)


#: Two scenario rows, so ``jobs=2`` really fans out (a one-row matrix
#: is one unit and runs in-process); flash-crowd's row sends contract
#: cells and a fault ledger through a worker.
MATRIX_SLICE = ["tiny", "flash-crowd"]


@pytest.mark.testkit
class TestMatrixParallel:
    def test_matrix_parallel_report_matches_serial(self):
        serial = run_matrix(scenarios=MATRIX_SLICE, jobs=1)
        pooled = run_matrix(scenarios=MATRIX_SLICE, jobs=2)
        assert pooled.to_json() == serial.to_json()
        assert pooled.ok == serial.ok
        assert sorted(pooled.chaos) == ["flash-crowd"]

    @pytest.mark.obs
    def test_matrix_parallel_counters_match_serial(self):
        obs.configure(enabled=True)
        try:
            obs.metrics().reset()
            serial = run_matrix(scenarios=MATRIX_SLICE, jobs=1)
            serial_snapshot = obs.metrics().snapshot()
            obs.metrics().reset()
            pooled = run_matrix(scenarios=MATRIX_SLICE, jobs=2)
            pooled_snapshot = obs.metrics().snapshot()
        finally:
            obs.configure(enabled=False)
        assert pooled.to_json() == serial.to_json()
        assert pooled_snapshot["counters"] == serial_snapshot["counters"]
        # The contract row's chaos counters came back from the worker.
        assert any(
            name.startswith("chaos.faults{")
            for name in pooled_snapshot["counters"]
        )


class TestCliJobsFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "--jobs", "0"],
            ["figures", "--jobs", "-2"],
            ["figures", "--jobs", "two"],
            ["generate", "--out", "x.jsonl", "--jobs", "0"],
            ["testkit", "run", "--jobs", "0"],
        ],
    )
    def test_bad_jobs_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "jobs" in capsys.readouterr().err

    def test_figures_listing_still_default(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "F18" in out and "T1" in out
        assert "==" not in out

    def test_figures_run_smoke(self, capsys):
        code = main(
            [
                "figures",
                "--run",
                "--snapshots",
                "2",
                "--publishers",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== T1:" in out and "== F18:" in out

    def test_figures_jobs_implies_run(self, capsys):
        code = main(
            [
                "figures",
                "--jobs",
                "1",
                "--snapshots",
                "2",
                "--publishers",
                "20",
            ]
        )
        assert code == 0
        assert "== T1:" in capsys.readouterr().out
