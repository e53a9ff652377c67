"""Dataset QA (telemetry.quality) and the verification report
(repro.experiments)."""

from datetime import date

import pytest

from repro.errors import DatasetError
from repro.experiments import Comparison, build_report, fraction_within_band
from repro.telemetry.dataset import Dataset
from repro.telemetry.quality import audit
from tests.test_telemetry_records import make_record


class TestAudit:
    def test_generated_dataset_is_clean(self, dataset):
        report = audit(dataset)
        assert report.ok
        assert report.classifiable_url_fraction == 1.0
        assert report.known_device_fraction == 1.0
        assert report.app_views_with_sdk_fraction == 1.0

    def test_summary_renders(self, dataset):
        text = audit(dataset).summary()
        assert "status: OK" in text

    def test_unclassifiable_urls_flagged(self):
        d = date(2018, 3, 12)
        records = [make_record(snapshot=d) for _ in range(5)]
        records += [
            make_record(snapshot=d, url="http://x/watch/1")
            for _ in range(5)
        ]
        report = audit(Dataset(records))
        assert not report.ok
        assert any(i.code == "E-URL" for i in report.issues)

    def test_unknown_devices_flagged(self):
        d = date(2018, 3, 12)
        records = [
            make_record(snapshot=d, device_model="fridge", sdk_name=None)
            for _ in range(10)
        ]
        report = audit(Dataset(records))
        assert any(i.code == "E-DEVICE" for i in report.issues)

    def test_missing_sdk_flagged(self):
        d = date(2018, 3, 12)
        record = make_record(snapshot=d, sdk_name=None, sdk_version=None)
        report = audit(Dataset([record]))
        assert any(i.code == "E-SDK" for i in report.issues)

    def test_dangling_syndication_flagged(self):
        d = date(2018, 3, 12)
        record = make_record(
            snapshot=d, is_syndicated=True, owner_id="ghost_pub"
        )
        report = audit(Dataset([record]))
        assert any(i.code == "E-SYND" for i in report.issues)

    def test_small_unknown_fraction_is_warning_only(self):
        d = date(2018, 3, 12)
        records = [make_record(snapshot=d) for _ in range(99)]
        records.append(
            make_record(snapshot=d, device_model="fridge", sdk_name=None)
        )
        report = audit(Dataset(records))
        assert report.ok
        assert any(i.code == "W-DEVICE" for i in report.issues)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            audit(Dataset([]))


class TestComparison:
    def test_relative_band(self):
        comparison = Comparison("X", "q", paper=2.0, measured=2.3,
                                tolerance=0.2)
        assert comparison.within
        assert not Comparison(
            "X", "q", paper=2.0, measured=2.5, tolerance=0.2
        ).within

    def test_absolute_band(self):
        comparison = Comparison(
            "X", "q", paper=40.0, measured=45.0, tolerance=6.0,
            absolute=True,
        )
        assert comparison.within

    def test_row_shape(self):
        row = Comparison("X", "q", 1.0, 1.1, 0.2).row()
        assert row["within_band"] == "yes"
        assert row["experiment"] == "X"


class TestReport:
    def test_report_covers_every_section(self, eco):
        experiments = {c.experiment for c in build_report(eco)}
        assert {
            "F2a", "F2b", "F2c", "F3a", "F4", "F6a", "F6c", "F8",
            "F9a", "F11a", "F12a", "F13", "F14", "F15", "F16", "F18",
            "S43L", "S44", "top5",
        } <= experiments

    def test_most_comparisons_within_band(self, eco):
        comparisons = build_report(eco)
        assert fraction_within_band(comparisons) > 0.85

    def test_rows_printable(self, eco):
        rows = [comparison.row() for comparison in build_report(eco)]
        assert all(
            set(row) == {
                "experiment", "quantity", "paper", "measured",
                "within_band",
            }
            for row in rows
        )

    def test_empty_report_rejected(self):
        with pytest.raises(Exception):
            fraction_within_band([])


class TestCliExperiments:
    def test_experiments_command(self, capsys):
        from repro.cli import main

        code = main(
            ["experiments", "--snapshots", "4", "--publishers", "60"]
        )
        out = capsys.readouterr().out
        assert "comparisons inside" in out
        assert code in (0, 1)  # small builds may fall outside some bands
