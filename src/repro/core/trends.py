"""Longitudinal count averages (Figs 3c, 9c, 12c).

Per snapshot: the plain average of per-publisher counts and the
view-hour-weighted average.  The weighted curve sitting above the plain
one is the paper's evidence that larger publishers support more
instances of every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import List

from repro.core.counts import publisher_counts
from repro.errors import AnalysisError
from repro.stats.weighted import weighted_mean
from repro.telemetry.columnar import ColumnRef
from repro.telemetry.dataset import Dataset


@dataclass(frozen=True)
class TrendPoint:
    """One snapshot of a Figs 3c/9c/12c curve pair."""

    snapshot: date
    average: float
    weighted_average: float
    publishers: int


def count_trend(dataset: Dataset, column: ColumnRef) -> List[TrendPoint]:
    """Average and VH-weighted average counts over all snapshots."""
    if len(dataset) == 0:
        raise AnalysisError("dataset is empty")
    points: List[TrendPoint] = []
    for snapshot in dataset.snapshots():
        snap = dataset.for_snapshot(snapshot)
        counts = publisher_counts(snap, column)
        vh = snap.publisher_view_hours()
        publishers = sorted(counts)
        values = [float(counts[p]) for p in publishers]
        weights = [vh.get(p, 0.0) for p in publishers]
        points.append(
            TrendPoint(
                snapshot=snapshot,
                average=weighted_mean(values),
                weighted_average=weighted_mean(values, weights),
                publishers=len(publishers),
            )
        )
    return points
