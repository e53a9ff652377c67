"""Snapshot scheduling (repro.telemetry)."""

from datetime import date

import pytest

from repro.errors import DatasetError
from repro.telemetry.snapshots import (
    STUDY_END,
    STUDY_START,
    SnapshotSchedule,
    default_schedule,
)


class TestSchedule:
    def test_default_has_59_snapshots(self):
        assert len(default_schedule()) == 59

    def test_spans_the_study_window(self):
        dates = default_schedule().dates()
        assert dates[0] == STUDY_START
        assert dates[-1] <= STUDY_END

    def test_index_of(self):
        schedule = default_schedule()
        dates = schedule.dates()
        assert dates.index(STUDY_START) == 0
        assert dates.index(schedule.latest()) == 58

    def test_months_elapsed(self):
        # §4: a 27-month study, January 2016 through March 2018.
        schedule = default_schedule()
        months = (schedule.latest() - STUDY_START).days / 30.4375
        assert 26 < months < 28

    def test_window_of(self):
        # "a sequence of two-day snapshots taken bi-weekly" (§4).
        schedule = default_schedule()
        dates = schedule.dates()
        assert schedule.window_days == 2
        assert {(b - a).days for a, b in zip(dates, dates[1:])} == {14}

    def test_validation(self):
        with pytest.raises(DatasetError):
            SnapshotSchedule(
                start=date(2018, 1, 1), end=date(2016, 1, 1)
            )
        with pytest.raises(DatasetError):
            SnapshotSchedule(window_days=0)
