"""Counts bucketed by publisher view-hours (Figs 3b, 9b, 12b).

Publishers are grouped into decades of daily view-hours (the paper's
confidential ``X`` is our calibrated base); each bucket is decomposed by
how many protocols / platforms / CDNs its publishers use.
"""

from __future__ import annotations

from repro.core.counts import publisher_counts
from repro.stats.bucketing import DecadeBuckets
from repro.synthesis.calibration import (
    SIZE_BUCKET_FRACTIONS,
    VIEW_HOUR_BASE_X,
)
from repro.telemetry.columnar import ColumnRef
from repro.telemetry.dataset import Dataset
from repro.telemetry.snapshots import SnapshotSchedule


def bucketed_counts(dataset: Dataset, column: ColumnRef) -> DecadeBuckets:
    """Decade buckets of per-publisher counts for one snapshot slice.

    ``dataset`` should be a single-snapshot slice (the paper uses the
    latest); view-hours are normalized from the snapshot window back to
    daily so the bucket edges line up with ``X``.
    """
    counts = publisher_counts(dataset, column)
    vh = dataset.publisher_view_hours()
    buckets = DecadeBuckets(
        base=VIEW_HOUR_BASE_X, n_buckets=len(SIZE_BUCKET_FRACTIONS)
    )
    for publisher, count in counts.items():
        daily = vh.get(publisher, 0.0) / SnapshotSchedule.window_days
        buckets.add(publisher, count, daily)
    return buckets
