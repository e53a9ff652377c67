"""Per-publisher instance counts (Figs 3a, 9a, 12a).

For a snapshot, how many distinct values of a dimension's column does
each publisher use, and — the paper's signature move — what share of all
publishers versus what share of all *view-hours* does each count level
represent?
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import AnalysisError
from repro.telemetry.columnar import ColumnRef
from repro.telemetry.dataset import Dataset


def publisher_counts(dataset: Dataset, column: ColumnRef) -> Dict[str, int]:
    """Distinct values of ``column`` per publisher in a dataset slice."""
    counts = dataset.values_per_publisher(column)
    if not counts:
        raise AnalysisError(f"no records in scope for column {column!r}")
    return counts


@dataclass(frozen=True)
class CountRow:
    """One bar group of Figs 3a/9a/12a."""

    count: int
    percent_publishers: float
    percent_view_hours: float
    publishers: int


def count_distribution(dataset: Dataset, column: ColumnRef) -> List[CountRow]:
    """Distribution of per-publisher counts, by publishers and view-hours.

    Publishers with no in-scope records are excluded (matching the
    paper, which can only count what it observes).
    """
    counts = publisher_counts(dataset, column)
    vh = dataset.publisher_view_hours()
    total_vh = sum(vh.get(p, 0.0) for p in counts)
    if total_vh <= 0:
        raise AnalysisError("no view-hours among counted publishers")
    by_count: Dict[int, List[str]] = defaultdict(list)
    for publisher, count in counts.items():
        by_count[count].append(publisher)
    rows: List[CountRow] = []
    for count in sorted(by_count):
        publishers = by_count[count]
        rows.append(
            CountRow(
                count=count,
                percent_publishers=100.0 * len(publishers) / len(counts),
                percent_view_hours=100.0
                * sum(vh.get(p, 0.0) for p in publishers)
                / total_vh,
                publishers=len(publishers),
            )
        )
    return rows


def share_with_count_above(
    rows: List[CountRow], threshold: int
) -> Dict[str, float]:
    """% publishers / % view-hours with count > threshold.

    Backs §4.4 claims like "more than 90% of view-hours can be
    attributed to publishers who support more than 1 protocol".
    """
    if not rows:
        raise AnalysisError("empty count distribution")
    return {
        "percent_publishers": sum(
            r.percent_publishers for r in rows if r.count > threshold
        ),
        "percent_view_hours": sum(
            r.percent_view_hours for r in rows if r.count > threshold
        ),
    }
