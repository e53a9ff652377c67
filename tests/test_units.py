"""Unit conversions (repro.units)."""

from datetime import date

import pytest

from repro import units


class TestBitrateConversions:
    def test_kbps_to_bytes_per_second(self):
        # 8000 kbps = 1 MB/s
        assert units.kbps_to_bytes_per_second(8000) == pytest.approx(1e6)

    def test_zero_bitrate_is_zero_bytes(self):
        assert units.kbps_to_bytes_per_second(0) == 0.0

    def test_negative_bitrate_rejected(self):
        with pytest.raises(ValueError):
            units.kbps_to_bytes_per_second(-1)

    def test_rendition_bytes_is_rate_times_duration(self):
        # 800 kbps for 10 s = 1 MB
        assert units.rendition_bytes(800, 10) == pytest.approx(1e6)

    def test_rendition_bytes_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            units.rendition_bytes(800, -1)


class TestStorageUnits:
    def test_bytes_to_tb_decimal(self):
        assert units.bytes_to_tb(1e12) == 1.0


class TestTimeUnits:
    def test_hours_seconds_roundtrip(self):
        assert units.seconds_to_hours(units.hours_to_seconds(2.5)) == 2.5

    def test_one_hour(self):
        assert units.hours_to_seconds(1) == 3600.0


class TestSnapshotDates:
    def test_biweekly_count_over_27_months(self):
        dates = list(
            units.biweekly_snapshot_dates(date(2016, 1, 4), date(2018, 3, 26))
        )
        # Jan 2016 .. Mar 2018 at 14-day cadence: 59 snapshots.
        assert len(dates) == 59

    def test_includes_start(self):
        dates = list(
            units.biweekly_snapshot_dates(date(2016, 1, 4), date(2016, 2, 1))
        )
        assert dates[0] == date(2016, 1, 4)

    def test_step_is_fourteen_days(self):
        dates = list(
            units.biweekly_snapshot_dates(date(2016, 1, 4), date(2016, 3, 1))
        )
        gaps = {(b - a).days for a, b in zip(dates, dates[1:])}
        assert gaps == {14}

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            list(
                units.biweekly_snapshot_dates(
                    date(2018, 1, 1), date(2016, 1, 1)
                )
            )

    def test_single_snapshot_when_start_equals_end(self):
        dates = list(
            units.biweekly_snapshot_dates(date(2016, 1, 4), date(2016, 1, 4))
        )
        assert dates == [date(2016, 1, 4)]

    def test_months_between_is_about_27(self):
        # The study window: January 2016 through March 2018.
        dates = list(
            units.biweekly_snapshot_dates(date(2016, 1, 4), date(2018, 3, 26))
        )
        months = (dates[-1] - dates[0]).days / 30.4375
        assert 26 < months < 28
