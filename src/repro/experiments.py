"""The paper-vs-measured verification report.

Runs the headline analyses over one ecosystem build and lines each
result up against the value the paper reports (``calibration.PAPER``).
This is the programmatic form of EXPERIMENTS.md: the CLI's
``repro experiments`` prints it, and tests assert on its contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.constants import Platform, Protocol
from repro.core.complexity import (
    fit_complexity,
    max_unique_sdks,
    publisher_complexity,
)
from repro.core.counts import count_distribution, share_with_count_above
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
)
from repro.core.durations import long_view_fractions
from repro.core.prevalence import (
    first_last,
    publisher_support_series,
    view_hour_share_series,
)
from repro.core.protocol_share import supporter_medians
from repro.core.storage import figure18
from repro.core.summary import (
    headline_summary,
    live_vod_cdn_segregation,
    top_cdn_concentration,
)
from repro.core.syndication import prevalence_summary, qoe_comparison
from repro.errors import AnalysisError
from repro.synthesis.calibration import PAPER, QOE_COMBOS, QOE_SYNDICATOR_LABEL
from repro.synthesis.catalogues import case_video_id
from repro.synthesis.generator import EcosystemResult


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured line of the report."""

    experiment: str
    quantity: str
    paper: float
    measured: float
    #: Acceptance band as a fraction of the paper value (or absolute
    #: when the paper value is a percentage-point quantity).
    tolerance: float
    absolute: bool = False

    @property
    def delta(self) -> float:
        return self.measured - self.paper

    @property
    def within(self) -> bool:
        if self.absolute:
            return abs(self.delta) <= self.tolerance
        if self.paper == 0:
            return abs(self.measured) <= self.tolerance
        return abs(self.delta) <= self.tolerance * abs(self.paper)

    def row(self) -> dict:
        return {
            "experiment": self.experiment,
            "quantity": self.quantity,
            "paper": self.paper,
            "measured": round(self.measured, 2),
            "within_band": "yes" if self.within else "NO",
        }


def build_report(result: EcosystemResult) -> List[Comparison]:
    """Compute every comparison for one ecosystem build."""
    dataset = result.dataset
    latest = dataset.latest()
    comparisons: List[Comparison] = []

    def add(experiment, quantity, paper, measured, tolerance, absolute=False):
        comparisons.append(
            Comparison(
                experiment=experiment,
                quantity=quantity,
                paper=float(paper),
                measured=float(measured),
                tolerance=tolerance,
                absolute=absolute,
            )
        )

    # -- §4.1 protocols -----------------------------------------------
    support = publisher_support_series(dataset, HTTP_PROTOCOL_COLUMN)
    for protocol, target in PAPER.publisher_share_latest.items():
        _, measured = first_last(support, protocol)
        add(
            "F2a",
            f"% publishers {protocol.display_name} (latest)",
            target,
            measured,
            10.0,
            absolute=True,
        )
    dash_first, _ = first_last(support, Protocol.DASH)
    add(
        "F2a",
        "% publishers DASH (first)",
        PAPER.dash_publisher_share_first,
        dash_first,
        8.0,
        absolute=True,
    )
    shares = view_hour_share_series(dataset, HTTP_PROTOCOL_COLUMN)
    for protocol, target in PAPER.view_hour_share_latest.items():
        _, measured = first_last(shares, protocol)
        add(
            "F2b",
            f"% view-hours {protocol.display_name} (latest)",
            target,
            measured,
            8.0,
            absolute=True,
        )
    excluded = view_hour_share_series(
        dataset,
        HTTP_PROTOCOL_COLUMN,
        exclude_publishers=result.dash_driver_ids,
    )
    _, dash_excluded = first_last(excluded, Protocol.DASH)
    add(
        "F2c",
        "% VH DASH excl drivers (latest)",
        PAPER.dash_share_excluding_drivers,
        dash_excluded,
        5.0,
        absolute=True,
    )
    protocol_rows = count_distribution(latest, HTTP_PROTOCOL_COLUMN)
    one = next(r for r in protocol_rows if r.count == 1)
    add(
        "F3a",
        "% publishers with 1 protocol",
        PAPER.pct_publishers_one_protocol,
        one.percent_publishers,
        10.0,
        absolute=True,
    )
    two = next((r for r in protocol_rows if r.count == 2), None)
    if two is None:
        raise AnalysisError("no two-protocol publishers observed")
    add(
        "F3a",
        "% VH from 2-protocol publishers",
        PAPER.pct_view_hours_two_protocols,
        two.percent_view_hours,
        15.0,
        absolute=True,
    )
    medians = supporter_medians(latest)
    add(
        "F4",
        "median HLS share among supporters",
        PAPER.median_hls_share_among_supporters,
        medians[Protocol.HLS],
        12.0,
        absolute=True,
    )
    add(
        "F4",
        "median DASH share among supporters",
        PAPER.median_dash_share_among_supporters,
        medians[Protocol.DASH],
        15.0,
        absolute=True,
    )

    # -- §4.2 platforms -------------------------------------------------
    platform_shares = view_hour_share_series(dataset, PLATFORM_COLUMN)
    for platform, target in PAPER.platform_view_hour_share_latest.items():
        _, measured = first_last(platform_shares, platform)
        add(
            "F6a",
            f"% VH {platform.display_name} (latest)",
            target,
            measured,
            8.0,
            absolute=True,
        )
    browser_first, _ = first_last(platform_shares, Platform.BROWSER)
    add(
        "F6a",
        "% VH browser (first)",
        PAPER.browser_view_hour_share_first,
        browser_first,
        10.0,
        absolute=True,
    )
    views = view_hour_share_series(dataset, PLATFORM_COLUMN, by_views=True)
    _, set_top_views = first_last(views, Platform.SET_TOP)
    add(
        "F6c",
        "% views set-top (latest)",
        PAPER.set_top_views_share_latest,
        set_top_views,
        8.0,
        absolute=True,
    )
    fractions = long_view_fractions(latest, threshold_hours=0.2)
    add(
        "F8",
        "P[mobile view > 0.2h]",
        PAPER.long_view_fraction_mobile,
        fractions[Platform.MOBILE],
        0.10,
        absolute=True,
    )
    add(
        "F8",
        "P[set-top view > 0.2h]",
        PAPER.long_view_fraction_set_top,
        fractions[Platform.SET_TOP],
        0.12,
        absolute=True,
    )
    platform_rows = count_distribution(latest, PLATFORM_COLUMN)
    multi = share_with_count_above(platform_rows, 1)
    add(
        "F9a",
        "% publishers multi-platform",
        PAPER.pct_publishers_multi_platform,
        multi["percent_publishers"],
        10.0,
        absolute=True,
    )

    # -- §4.3 CDNs --------------------------------------------------------
    cdn_support = publisher_support_series(dataset, CDN_COLUMN)
    for name, target in PAPER.cdn_publisher_share_latest.items():
        _, measured = first_last(cdn_support, name)
        add(
            "F11a",
            f"% publishers using CDN {name} (latest)",
            target,
            measured,
            12.0,
            absolute=True,
        )
    add(
        "top5",
        "% VH via top-5 CDNs",
        PAPER.top5_view_hour_share,
        top_cdn_concentration(latest),
        6.0,
        absolute=True,
    )
    cdn_rows = count_distribution(latest, CDN_COLUMN)
    single = next(r for r in cdn_rows if r.count == 1)
    add(
        "F12a",
        "% VH from single-CDN publishers",
        PAPER.pct_view_hours_one_cdn,
        single.percent_view_hours,
        5.0,
        absolute=True,
    )
    heavy = sum(r.percent_view_hours for r in cdn_rows if r.count >= 4)
    add(
        "F12a",
        "% VH from 4-5 CDN publishers",
        PAPER.pct_view_hours_4_or_5_cdns,
        heavy,
        16.0,
        absolute=True,
    )
    segregation = live_vod_cdn_segregation(latest)
    add(
        "S43L",
        "% multi-CDN pubs with VoD-only CDN",
        PAPER.pct_vod_only_cdn_publishers,
        segregation.pct_with_vod_only_cdn,
        15.0,
        absolute=True,
    )
    add(
        "S43L",
        "% multi-CDN pubs with live-only CDN",
        PAPER.pct_live_only_cdn_publishers,
        segregation.pct_with_live_only_cdn,
        15.0,
        absolute=True,
    )

    # -- §4.4 summary ---------------------------------------------------
    summaries = headline_summary(dataset)
    add(
        "S44",
        "weighted avg protocols",
        PAPER.weighted_avg_protocols,
        summaries["protocols"].weighted_average_count,
        0.25,
    )
    add(
        "S44",
        "weighted avg platforms",
        PAPER.weighted_avg_platforms,
        summaries["platforms"].weighted_average_count,
        0.15,
    )
    add(
        "S44",
        "weighted avg CDNs",
        PAPER.weighted_avg_cdns,
        summaries["cdns"].weighted_average_count,
        0.15,
    )

    # -- §5 complexity ----------------------------------------------------
    metrics = publisher_complexity(latest, result.catalogue_sizes)
    fits = fit_complexity(metrics)
    add(
        "F13",
        "combinations factor / decade",
        PAPER.combos_factor_per_decade,
        fits.combinations.per_decade_factor,
        0.35,
    )
    add(
        "F13",
        "protocol-titles factor / decade",
        PAPER.protocol_titles_factor_per_decade,
        fits.protocol_titles.per_decade_factor,
        0.25,
    )
    add(
        "F13",
        "unique-SDKs factor / decade",
        PAPER.unique_sdks_factor_per_decade,
        fits.unique_sdks.per_decade_factor,
        0.25,
    )
    add(
        "F13",
        "max unique SDKs",
        PAPER.max_unique_sdks,
        float(max_unique_sdks(metrics)),
        0.5,
    )

    # -- §6 syndication ----------------------------------------------------
    syndication = prevalence_summary(dataset)
    add(
        "F14",
        "% owners with >=1 syndicator",
        PAPER.pct_owners_with_syndicator,
        syndication["pct_owners_with_syndicator"],
        15.0,
        absolute=True,
    )
    if result.case_study is not None:
        study = result.case_study
        isp, cdn_name = QOE_COMBOS[0]
        comparison = qoe_comparison(
            dataset,
            study.owner_id,
            study.publisher_id(QOE_SYNDICATOR_LABEL),
            case_video_id(),
            isp,
            cdn_name,
        )
        add(
            "F15",
            f"owner median bitrate gain ({isp}/{cdn_name})",
            PAPER.owner_median_bitrate_gain,
            comparison.median_bitrate_gain(),
            0.40,
        )
        add(
            "F16",
            f"owner p90 rebuffer reduction ({isp}/{cdn_name})",
            PAPER.owner_p90_rebuffer_reduction,
            comparison.p90_rebuffer_reduction(),
            0.20,
            absolute=True,
        )
        savings = figure18(study)[0]
        add(
            "F18",
            "catalogue storage (TB)",
            PAPER.catalogue_storage_tb,
            savings.total_tb,
            0.06,
        )
        add(
            "F18",
            "% saved @5% tolerance",
            PAPER.savings_pct_5pct,
            savings.saved_pct_5pct,
            2.0,
            absolute=True,
        )
        add(
            "F18",
            "% saved @10% tolerance",
            PAPER.savings_pct_10pct,
            savings.saved_pct_10pct,
            2.0,
            absolute=True,
        )
        add(
            "F18",
            "% saved integrated",
            PAPER.savings_pct_integrated,
            savings.saved_pct_integrated,
            2.0,
            absolute=True,
        )
    return comparisons


def fraction_within_band(comparisons: List[Comparison]) -> float:
    """Fraction of comparisons inside their acceptance band."""
    if not comparisons:
        raise AnalysisError("empty report")
    return sum(1 for c in comparisons if c.within) / len(comparisons)
