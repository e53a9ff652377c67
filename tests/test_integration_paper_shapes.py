"""Integration: does the full pipeline reproduce the paper's shapes?

These tests run the real analyses over the session-scoped synthetic
dataset and assert the *qualitative* findings of the paper — trend
directions, who dominates, rough magnitudes — with generous tolerances
(the dataset is a thinned 6-snapshot build).  EXPERIMENTS.md holds the
exact paper-vs-measured numbers for the full 59-snapshot build.
"""

import pytest

from repro.constants import Platform, Protocol
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
    PROTOCOL_COLUMN,
    family_column,
)
from repro.core.counts import count_distribution, share_with_count_above
from repro.core.prevalence import (
    first_last,
    publisher_support_series,
    view_hour_share_series,
)


@pytest.fixture(scope="module")
def protocol_support(dataset):
    return publisher_support_series(dataset, PROTOCOL_COLUMN)


@pytest.fixture(scope="module")
def protocol_vh(dataset):
    return view_hour_share_series(dataset, PROTOCOL_COLUMN)


class TestFig2Protocols:
    def test_hls_support_near_universal(self, protocol_support):
        _, latest = first_last(protocol_support, Protocol.HLS)
        assert latest > 85.0  # paper: 91%

    def test_dash_support_grows(self, protocol_support):
        start, end = first_last(protocol_support, Protocol.DASH)
        assert start < 25.0  # paper: 10%
        assert end > 35.0  # paper: 43%

    def test_hds_support_declines(self, protocol_support):
        start, end = first_last(protocol_support, Protocol.HDS)
        assert end < start
        assert end < 30.0  # paper: 19%

    def test_mss_support_steady(self, protocol_support):
        start, end = first_last(protocol_support, Protocol.MSS)
        assert abs(start - end) < 12.0  # paper: ~42% -> ~40%

    def test_dash_view_hours_surge(self, protocol_vh):
        start, end = first_last(protocol_vh, Protocol.DASH)
        assert start < 10.0  # paper: 3%
        assert end > 25.0  # paper: 38%

    def test_hls_and_dash_dominate_latest(self, protocol_vh, dataset):
        latest = protocol_vh[dataset.latest_snapshot()]
        assert latest[Protocol.HLS] + latest[Protocol.DASH] > 70.0

    def test_dash_growth_driven_by_large_publishers(self, dataset, eco):
        excluded = view_hour_share_series(
            dataset,
            PROTOCOL_COLUMN,
            exclude_publishers=eco.dash_driver_ids,
        )
        _, end = first_last(excluded, Protocol.DASH)
        assert end < 12.0  # paper: <5% once drivers removed

    def test_rtmp_negligible_and_declining(self, protocol_vh):
        start, end = first_last(protocol_vh, Protocol.RTMP)
        assert end < start
        assert end < 0.5  # paper: 0.1%


class TestFig3ProtocolCounts:
    def test_single_protocol_publishers_small_share_of_vh(self, latest):
        rows = count_distribution(latest, HTTP_PROTOCOL_COLUMN)
        single = next(r for r in rows if r.count == 1)
        assert single.percent_publishers > 20.0  # paper: 38%
        assert single.percent_view_hours < 15.0  # paper: <10%

    def test_two_protocols_dominate_view_hours(self, latest):
        rows = count_distribution(latest, HTTP_PROTOCOL_COLUMN)
        two = next(r for r in rows if r.count == 2)
        assert two.percent_view_hours > 40.0  # paper: ~60%

    def test_multi_protocol_vh_over_90pct(self, latest):
        rows = count_distribution(latest, HTTP_PROTOCOL_COLUMN)
        assert share_with_count_above(rows, 1)["percent_view_hours"] > 85.0


class TestFig6and7Platforms:
    def test_browser_view_hours_decline(self, dataset):
        series = view_hour_share_series(dataset, PLATFORM_COLUMN)
        start, end = first_last(series, Platform.BROWSER)
        assert start > 45.0  # paper: ~60%
        assert end < 35.0  # paper: <25%

    def test_set_top_takes_the_lead(self, dataset):
        series = view_hour_share_series(dataset, PLATFORM_COLUMN)
        latest = series[dataset.latest_snapshot()]
        assert latest[Platform.SET_TOP] == max(latest.values())

    def test_smart_tv_vh_stays_small(self, dataset):
        series = view_hour_share_series(dataset, PLATFORM_COLUMN)
        _, end = first_last(series, Platform.SMART_TV)
        assert end < 10.0  # paper: <5%

    def test_set_top_views_lag_view_hours(self, dataset):
        vh = view_hour_share_series(dataset, PLATFORM_COLUMN)
        views = view_hour_share_series(
            dataset, PLATFORM_COLUMN, by_views=True
        )
        latest = dataset.latest_snapshot()
        # Fig 6a vs 6c: ~40% of view-hours but only ~20% of views.
        assert views[latest][Platform.SET_TOP] < 0.75 * vh[latest][
            Platform.SET_TOP
        ]

    def test_mobile_leads_without_top3(self, dataset, eco):
        series = view_hour_share_series(
            dataset, PLATFORM_COLUMN, exclude_publishers=eco.top3_ids
        )
        latest = series[dataset.latest_snapshot()]
        # Fig 6b: mobile apps surpass every other platform.
        others = [
            v for k, v in latest.items() if k is not Platform.MOBILE
        ]
        assert latest[Platform.MOBILE] >= max(others) - 6.0

    def test_set_top_and_smart_tv_support_grow(self, dataset):
        series = publisher_support_series(dataset, PLATFORM_COLUMN)
        for platform in (Platform.SET_TOP, Platform.SMART_TV):
            start, end = first_last(series, platform)
            assert end > start + 20.0  # paper: <20% -> >50%/60%


class TestFig10WithinPlatform:
    def test_html5_overtakes_flash(self, dataset):
        series = view_hour_share_series(
            dataset, family_column(Platform.BROWSER)
        )
        flash_start, flash_end = first_last(series, "flash")
        html5_start, html5_end = first_last(series, "html5")
        assert flash_end < flash_start  # modest decline (paper: 60->40)
        assert html5_end > html5_start  # rise (paper: 25->60)
        assert html5_end > flash_end

    def test_flash_decline_is_modest(self, dataset):
        # §4.4: unlike the Chromium report's 96% drop, view-hours show
        # a modest decline with Flash still carrying a large share.
        series = view_hour_share_series(
            dataset, family_column(Platform.BROWSER)
        )
        _, flash_end = first_last(series, "flash")
        assert flash_end > 25.0

    def test_android_reaches_parity(self, dataset):
        series = view_hour_share_series(
            dataset, family_column(Platform.MOBILE)
        )
        android_start, android_end = first_last(series, "android")
        ios_start, ios_end = first_last(series, "ios")
        assert android_end > android_start
        assert abs(android_end - ios_end) < 20.0  # comparable viewership

    def test_roku_dominates_set_tops(self, dataset):
        series = view_hour_share_series(
            dataset, family_column(Platform.SET_TOP)
        )
        latest = series[dataset.latest_snapshot()]
        assert latest["roku"] == max(latest.values())
        assert latest.get("appletv", 0) > 5.0
        assert latest.get("firetv", 0) > 5.0


class TestFig11and12Cdns:
    def test_cdn_a_most_popular_with_publishers(self, dataset):
        series = publisher_support_series(dataset, CDN_COLUMN)
        latest = series[dataset.latest_snapshot()]
        assert latest["A"] > 70.0  # paper: ~80%
        assert latest["A"] > latest.get("B", 0)
        assert latest["A"] > latest.get("C", 0)

    def test_a_loses_vh_dominance(self, dataset):
        series = view_hour_share_series(dataset, CDN_COLUMN)
        a_start, a_end = first_last(series, "A")
        assert a_end < a_start
        latest = series[dataset.latest_snapshot()]
        # Three CDNs with comparable view-hours by the end (20-35% each).
        comparable = [
            latest.get(name, 0) for name in ("A", "B", "C")
        ]
        assert all(15.0 < share < 45.0 for share in comparable)

    def test_d_and_e_stay_small(self, dataset):
        series = view_hour_share_series(dataset, CDN_COLUMN)
        latest = series[dataset.latest_snapshot()]
        assert latest.get("D", 0) < 10.0
        assert latest.get("E", 0) < 10.0

    def test_single_cdn_publishers_hold_tiny_vh(self, latest):
        rows = count_distribution(latest, CDN_COLUMN)
        single = next(r for r in rows if r.count == 1)
        assert single.percent_publishers > 25.0  # paper: >40%
        assert single.percent_view_hours < 5.0

    def test_4_or_5_cdn_publishers_hold_most_vh(self, latest):
        rows = count_distribution(latest, CDN_COLUMN)
        heavy = sum(
            r.percent_view_hours for r in rows if r.count >= 4
        )
        assert heavy > 65.0  # paper: ~80%

    def test_max_five_cdns(self, latest):
        rows = count_distribution(latest, CDN_COLUMN)
        assert max(r.count for r in rows) <= 5
