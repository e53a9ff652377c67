"""Decade bucketing of publishers by daily view-hours.

Figs 3b, 9b and 12b bucket publishers by order of magnitude of daily
view-hours: the first bucket is publishers with at most ``X`` daily
view-hours (the paper withholds X for confidentiality; our synthetic
calibration fixes it), the next is (X, 10X], then (10X, 100X], and so
on.  Each bar is then decomposed by the number of protocols / platforms
/ CDNs the bucketed publishers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class DecadeBuckets:
    """Decade-of-view-hours bucketing with per-bucket count histograms.

    Parameters
    ----------
    base:
        The confidential ``X``: the upper bound of the smallest bucket.
    n_buckets:
        Number of decade buckets; bucket ``i`` covers
        ``(base*10**(i-1), base*10**i]`` with bucket 0 covering
        ``(0, base]``.  Values above the last edge are clamped into the
        final bucket (the paper's right-most bar is open-ended).
    """

    base: float
    n_buckets: int = 6
    _members: List[List[Tuple[str, int, float]]] = field(init=False)

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("bucket base must be positive")
        if self.n_buckets < 1:
            raise ValueError("need at least one bucket")
        self._members = [[] for _ in range(self.n_buckets)]

    def bucket_index(self, view_hours: float) -> int:
        """Index of the decade bucket for a daily view-hours value."""
        if view_hours < 0:
            raise ValueError("view-hours must be non-negative")
        if view_hours <= self.base:
            return 0
        idx = int(math.ceil(math.log10(view_hours / self.base) - 1e-12))
        return min(idx, self.n_buckets - 1)

    def add(self, publisher_id: str, count: int, view_hours: float) -> None:
        """Record a publisher with its dimension count and view-hours."""
        if count < 0:
            raise ValueError("count must be non-negative")
        idx = self.bucket_index(view_hours)
        self._members[idx].append((publisher_id, count, view_hours))

    def label(self, idx: int) -> str:
        """Human-readable bucket label in units of X (e.g. '100X-1000X')."""
        if not 0 <= idx < self.n_buckets:
            raise IndexError(f"bucket index {idx} out of range")
        if idx == 0:
            return "<=X"
        lo = 10 ** (idx - 1)
        hi = 10**idx
        lo_str = "X" if lo == 1 else f"{lo}X"
        if idx == self.n_buckets - 1:
            return f">{lo_str}"
        return f"{lo_str}-{hi}X"

    def publisher_counts(self) -> List[int]:
        """Number of publishers in each bucket."""
        return [len(members) for members in self._members]

    def publisher_share(self) -> List[float]:
        """Percentage of all publishers in each bucket (Figs 3b/9b/12b y-axis)."""
        total = sum(len(m) for m in self._members)
        if total == 0:
            raise ValueError("no publishers added")
        return [100.0 * len(m) / total for m in self._members]

    def count_histogram(self, idx: int) -> Dict[int, int]:
        """Histogram of dimension counts among publishers in bucket ``idx``."""
        hist: Dict[int, int] = {}
        for _, count, _ in self._members[idx]:
            hist[count] = hist.get(count, 0) + 1
        return dict(sorted(hist.items()))

    def stacked_rows(self) -> List[Dict[str, object]]:
        """One row per bucket: label, % publishers, count breakdown.

        This is the tabular equivalent of the stacked-bar figures.
        """
        shares = self.publisher_share()
        rows: List[Dict[str, object]] = []
        for idx in range(self.n_buckets):
            rows.append(
                {
                    "bucket": self.label(idx),
                    "publishers": len(self._members[idx]),
                    "percent_publishers": shares[idx],
                    "count_histogram": self.count_histogram(idx),
                }
            )
        return rows
