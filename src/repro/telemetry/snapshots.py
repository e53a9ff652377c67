"""The bi-weekly snapshot schedule of the study window (§4).

"Our two-year dataset is too large to process every view, so we use a
sequence of two-day snapshots taken bi-weekly" — January 2016 through
March 2018, with the last snapshot (March 2018) used for the
per-publisher-count analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import List

from repro.errors import DatasetError
from repro.units import biweekly_snapshot_dates

#: The paper's study window.
STUDY_START = date(2016, 1, 4)
STUDY_END = date(2018, 3, 26)


@dataclass(frozen=True)
class SnapshotSchedule:
    """Bi-weekly two-day snapshot windows over a study period."""

    start: date = STUDY_START
    end: date = STUDY_END
    window_days: int = 2

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise DatasetError("schedule end precedes start")
        if self.window_days < 1:
            raise DatasetError("snapshot window must be at least one day")

    def dates(self) -> List[date]:
        """First day of every snapshot window."""
        return list(biweekly_snapshot_dates(self.start, self.end))

    def __len__(self) -> int:
        return len(self.dates())

    def latest(self) -> date:
        return self.dates()[-1]


def default_schedule() -> SnapshotSchedule:
    """The 27-month, 59-snapshot schedule used throughout."""
    return SnapshotSchedule()
