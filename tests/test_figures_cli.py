"""The figure registry and the CLI."""

import pytest

from repro import figures
from repro.cli import main
from repro.errors import AnalysisError
from repro.telemetry.dataset import Dataset

EXPECTED_IDS = {
    "T1",
    "F2a", "F2b", "F2c", "F3a", "F3b", "F3c", "F4", "F5",
    "F6a", "F6b", "F6c", "F7", "F8", "F9a", "F9b", "F9c",
    "F10a", "F10b", "F10c", "F11a", "F11b", "F12a", "F12b", "F12c",
    "F13", "F14", "F15", "F16", "F17", "F18",
    "S41R", "S43L", "S44",
    "X1", "X2", "X3", "X4",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(figures.figure_ids()) == EXPECTED_IDS

    def test_descriptions_exist(self):
        for figure_id in figures.figure_ids():
            assert figures.describe(figure_id)

    def test_unknown_figure_rejected(self, eco):
        with pytest.raises(AnalysisError):
            figures.run_figure("F99", eco)

    @pytest.mark.parametrize("figure_id", sorted(EXPECTED_IDS))
    def test_every_figure_produces_rows(self, eco, figure_id):
        rows = figures.run_figure(figure_id, eco)
        assert rows, figure_id
        assert all(isinstance(row, dict) for row in rows)

    def test_f17_lists_eleven_ladders(self, eco):
        rows = figures.run_figure("F17", eco)
        labels = {row["label"] for row in rows}
        assert labels == {"O"} | {f"S{i}" for i in range(1, 11)}

    def test_f13_reports_four_metrics(self, eco):
        rows = figures.run_figure("F13", eco)
        assert len(rows) == 4

    def test_t1_detection_consistent(self, eco):
        for row in figures.run_figure("T1", eco):
            assert row["protocol"] == row["detected"]


class TestCli:
    def test_figures_listing(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "F18" in out and "T1" in out

    def test_generate_writes_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "mini.jsonl.gz"
        code = main(
            [
                "generate",
                "--out",
                str(out_path),
                "--seed",
                "7",
                "--snapshots",
                "2",
                "--publishers",
                "30",
            ]
        )
        assert code == 0
        assert out_path.exists()
        loaded = Dataset.load(out_path)
        assert len(loaded.publishers()) == 30

    def test_figure_command_prints_table(self, capsys):
        code = main(
            [
                "figure",
                "T1",
                "--snapshots",
                "2",
                "--publishers",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SmoothStreaming" in out

    def test_summary_command(self, capsys):
        code = main(["summary", "--snapshots", "2", "--publishers", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "protocols" in out

    def test_unknown_figure_id_errors(self):
        with pytest.raises(AnalysisError):
            main(["figure", "F99", "--snapshots", "2", "--publishers", "30"])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["generate", "--seed", "-5", "--snapshots", "2", "--publishers",
          "20", "--out", "x.jsonl"], "seed"),
        (["generate", "--publishers", "0", "--out", "x.jsonl"], "publishers"),
        (["summary", "--snapshots", "-1"], "snapshot_limit"),
        (["figures", "--run", "--snapshots", "1"], "snapshot_limit"),
    ],
    ids=["negative-seed", "no-publishers", "negative-snapshots",
         "one-snapshot"],
)
def test_bad_generator_flags_exit_2_with_one_line(
    argv, named, tmp_path, monkeypatch, capsys
):
    """The config rejects the flags before anything is built: one
    ``<command>: <message>`` line on stderr and exit 2, no traceback."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{argv[0]}: ") and named in captured.err
    assert not (tmp_path / "x.jsonl").exists()
