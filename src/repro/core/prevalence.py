"""Prevalence analyses: how each dimension evolved (Figs 2, 6, 7, 10, 11).

Two generic time series per dimension's column:

* *across publishers* — % of publishers with at least one view on a
  value in each snapshot (sums can exceed 100%: publishers support
  multiple values);
* *by view-hours* (or views) — % of snapshot view-hours attributable to
  each value, optionally excluding named publishers (the paper's
  "remove the largest publishers" cuts, Figs 2c and 6b).
"""

from __future__ import annotations

from datetime import date
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import AnalysisError
from repro.telemetry.columnar import ColumnRef
from repro.telemetry.dataset import Dataset

#: snapshot date -> value -> percentage
SeriesByValue = Dict[date, Dict[object, float]]


def publisher_support_series(
    dataset: Dataset, column: ColumnRef
) -> SeriesByValue:
    """% of publishers supporting each value, per snapshot (Figs 2a, 7, 11a)."""
    if len(dataset) == 0:
        raise AnalysisError("dataset is empty")
    series: SeriesByValue = {}
    for snapshot in dataset.snapshots():
        snap = dataset.for_snapshot(snapshot)
        per_value = snap.publishers_per_value(column)
        total = len(snap.publishers())
        series[snapshot] = {
            value: 100.0 * count / total for value, count in per_value.items()
        }
    return series


def view_hour_share_series(
    dataset: Dataset,
    column: ColumnRef,
    exclude_publishers: Iterable[str] = (),
    by_views: bool = False,
) -> SeriesByValue:
    """% of view-hours (or views) per value, per snapshot.

    Figs 2b/6a/10/11b; with ``exclude_publishers`` it is Figs 2c/6b; with
    ``by_views=True`` it is Fig 6c.  Percentages are of the in-scope
    total (records the column classifies), so they sum to ~100%.
    """
    excluded = set(exclude_publishers)
    series: SeriesByValue = {}
    for snapshot in dataset.snapshots():
        snap = dataset.for_snapshot(snapshot)
        if excluded:
            snap = snap.exclude_publishers(excluded)
        totals = (
            snap.views_by(column) if by_views else snap.view_hours_by(column)
        )
        in_scope = sum(totals.values())
        if in_scope <= 0:
            raise AnalysisError(
                f"snapshot {snapshot} has no in-scope records"
            )
        series[snapshot] = {
            value: 100.0 * total / in_scope for value, total in totals.items()
        }
    return series


def first_last(
    series: SeriesByValue, value: object
) -> Tuple[float, float]:
    """(first snapshot share, last snapshot share) of one value."""
    if not series:
        raise AnalysisError("empty series")
    snapshots = sorted(series)
    return (
        series[snapshots[0]].get(value, 0.0),
        series[snapshots[-1]].get(value, 0.0),
    )


def series_rows(
    series: SeriesByValue, values: Sequence[object]
) -> List[Dict[str, object]]:
    """Flatten a series into printable rows (one per snapshot)."""
    rows: List[Dict[str, object]] = []
    for snapshot in sorted(series):
        row: Dict[str, object] = {"snapshot": snapshot.isoformat()}
        for value in values:
            label = getattr(value, "display_name", None) or getattr(
                value, "value", None
            ) or str(value)
            row[str(label)] = round(series[snapshot].get(value, 0.0), 2)
        rows.append(row)
    return rows
