"""§4.4-style summary statistics across all three dimensions.

The roll-up numbers the paper quotes in prose: weighted-average choice
counts, the share of view-hours behind multi-protocol / multi-CDN /
multi-platform publishers, RTMP's decline, top-5 CDN concentration, and
the live-vs-VoD CDN segregation percentages of §4.3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from repro.constants import ContentType, Protocol
from repro.core.counts import count_distribution, share_with_count_above
from repro.core.dimensions import (
    PROTOCOL_COLUMN,
    CdnDimension,
    Dimension,
    PlatformDimension,
    ProtocolDimension,
)
from repro.core.trends import count_trend
from repro.errors import AnalysisError
from repro.telemetry.columnar import record_codes
from repro.telemetry.dataset import Dataset


@dataclass(frozen=True)
class DimensionSummary:
    """Headline stats for one dimension in the latest snapshot."""

    name: str
    average_count: float
    weighted_average_count: float
    pct_publishers_multi: float
    pct_view_hours_multi: float


def summarize_dimension(
    dataset: Dataset, dimension: Dimension
) -> DimensionSummary:
    """Latest-snapshot summary of one dimension."""
    latest = dataset.latest()
    rows = count_distribution(latest, dimension)
    multi = share_with_count_above(rows, 1)
    trend = count_trend(latest, dimension)[-1]
    return DimensionSummary(
        name=dimension.name,
        average_count=trend.average,
        weighted_average_count=trend.weighted_average,
        pct_publishers_multi=multi["percent_publishers"],
        pct_view_hours_multi=multi["percent_view_hours"],
    )


def headline_summary(dataset: Dataset) -> Dict[str, DimensionSummary]:
    """§4.4's three-dimension roll-up (protocols, platforms, CDNs)."""
    return {
        "protocols": summarize_dimension(dataset, ProtocolDimension()),
        "platforms": summarize_dimension(dataset, PlatformDimension()),
        "cdns": summarize_dimension(dataset, CdnDimension()),
    }


def rtmp_share(dataset: Dataset) -> Dict[str, float]:
    """RTMP view-hour share at the first and last snapshots (§4.1)."""
    shares: Dict[str, float] = {}
    for which, snapshot in (
        ("first", dataset.first_snapshot()),
        ("latest", dataset.latest_snapshot()),
    ):
        by_protocol = dataset.for_snapshot(snapshot).view_hours_by(
            PROTOCOL_COLUMN
        )
        total = sum(by_protocol.values())
        rtmp = by_protocol.get(Protocol.RTMP, 0.0)
        if total <= 0:
            raise AnalysisError(f"no classifiable records at {snapshot}")
        shares[which] = 100.0 * rtmp / total
    return shares


def top_cdn_concentration(dataset: Dataset, n: int = 5) -> float:
    """% of view-hours served by the top-n CDNs (§4.3: >93% for n=5).

    A view with k CDNs gives each ``view_hours / k``.  Every total adds
    its terms one at a time in record order (``bincount`` per CDN,
    ``add.accumulate`` overall), as a loop over the records would.
    """
    view_hours = dataset.measure("view_hours")
    cdns = dataset.entries(CdnDimension.column_key)
    k = np.bincount(cdns.rows, minlength=len(view_hours))[cdns.rows]
    totals = np.bincount(
        cdns.codes,
        weights=view_hours[cdns.rows] / k,
        minlength=len(cdns.values),
    )
    present = np.bincount(cdns.codes, minlength=len(cdns.values)) > 0
    grand_total = (
        float(np.add.accumulate(view_hours)[-1]) if len(view_hours) else 0.0
    )
    if grand_total <= 0:
        raise AnalysisError("no view-hours in dataset")
    top = sorted(totals[present].tolist(), reverse=True)[:n]
    return 100.0 * sum(top) / grand_total


@dataclass(frozen=True)
class ContentSplitStats:
    """§4.3 live-vs-VoD CDN segregation among multi-CDN publishers."""

    eligible_publishers: int
    pct_with_vod_only_cdn: float
    pct_with_live_only_cdn: float


def live_vod_cdn_segregation(dataset: Dataset) -> ContentSplitStats:
    """Of publishers using multiple CDNs and serving both live and VoD,
    the share keeping at least one CDN exclusive to one content type."""
    publishers = dataset.entries("publisher_id")
    cdns = dataset.entries(CdnDimension.column_key)
    types = dataset.entries("content_type")
    # One key per distinct (publisher, CDN, content type) the views show.
    n_cdns, n_types = len(cdns.values), len(types.values) + 1
    keys = np.unique(
        (publishers.codes[cdns.rows] * n_cdns + cdns.codes) * n_types
        + record_codes(types, len(dataset))[cdns.rows] + 1
    )
    type_values = types.values + (None,)  # OUT_OF_SCOPE reads None
    cdn_types: Dict[str, Dict[str, Set[ContentType]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for key in keys.tolist():
        pair, content_type = divmod(key, n_types)
        publisher, cdn = divmod(pair, n_cdns)
        cdn_types[publishers.values[publisher]][cdns.values[cdn]].add(
            type_values[content_type - 1]
        )
    eligible = 0
    vod_only = 0
    live_only = 0
    for publisher, per_cdn in cdn_types.items():
        served: Set[ContentType] = set()
        for types in per_cdn.values():
            served |= types
        if len(per_cdn) < 2 or served != {ContentType.LIVE, ContentType.VOD}:
            continue
        eligible += 1
        if any(types == {ContentType.VOD} for types in per_cdn.values()):
            vod_only += 1
        if any(types == {ContentType.LIVE} for types in per_cdn.values()):
            live_only += 1
    if eligible == 0:
        raise AnalysisError("no multi-CDN live+VoD publishers observed")
    return ContentSplitStats(
        eligible_publishers=eligible,
        pct_with_vod_only_cdn=100.0 * vod_only / eligible,
        pct_with_live_only_cdn=100.0 * live_only / eligible,
    )
