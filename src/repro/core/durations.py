"""View-duration analysis (Fig 8) and the views/view-hours contrast.

Fig 8 plots, per platform, the CDF of individual view duration (hours,
truncated at 1 on the x-axis): only ~24% of mobile and browser views
exceed 0.2 hours while >60% of set-top views do — the mechanism behind
set-top boxes leading by view-hours (Fig 6a) but not by views (Fig 6c).
"""

from __future__ import annotations

from typing import Dict

from repro.constants import Platform
from repro.core.dimensions import PLATFORM_COLUMN
from repro.errors import AnalysisError
from repro.stats.cdf import ECDF
from repro.telemetry.columnar import code_of
from repro.telemetry.dataset import Dataset


def duration_cdfs(dataset: Dataset) -> Dict[Platform, ECDF]:
    """Views-weighted duration CDF per platform for a dataset slice."""
    platforms = dataset.entries(PLATFORM_COLUMN)
    durations = dataset.measure("view_duration_hours")[platforms.rows]
    views = dataset.measure("views")[platforms.rows]
    cdfs: Dict[Platform, ECDF] = {}
    for platform in Platform:
        mine = platforms.codes == code_of(platforms.values, platform)
        if mine.any():
            cdfs[platform] = ECDF(durations[mine], views[mine])
    if not cdfs:
        raise AnalysisError("no classifiable records for duration CDFs")
    return cdfs


def long_view_fractions(
    dataset: Dataset, threshold_hours: float = 0.2
) -> Dict[Platform, float]:
    """P[view duration > threshold] per platform (§4.2's 0.2 h cut)."""
    if threshold_hours < 0:
        raise AnalysisError("threshold must be non-negative")
    return {
        platform: cdf.survival(threshold_hours)
        for platform, cdf in duration_cdfs(dataset).items()
    }
