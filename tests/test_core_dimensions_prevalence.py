"""Dimension columns and prevalence series (repro.core)."""

from datetime import date

import pytest

from repro.constants import Platform, Protocol
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
    PROTOCOL_COLUMN,
    family_column,
)
from repro.core.prevalence import (
    first_last,
    publisher_support_series,
    series_rows,
    view_hour_share_series,
)
from repro.errors import AnalysisError
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


def _values(column, record):
    """The column's values for one record, as the store classifies it."""
    entries = Dataset([record]).entries(column)
    return tuple(entries.values[code] for code in entries.codes)


def _weighted_values(column, record):
    """The column's (value, share) pairs for one record, from the store."""
    entries = Dataset([record]).entries(column)
    return tuple(
        (entries.values[code], float(share))
        for code, share in zip(entries.codes, entries.shares)
    )


class TestProtocolDimension:
    def test_detects_from_url(self):
        record = make_record(url="http://x/v/master.mpd")
        assert _values(HTTP_PROTOCOL_COLUMN, record) == (Protocol.DASH,)

    def test_http_column_excludes_rtmp(self):
        record = make_record(url="rtmp://x/live/v")
        assert _values(HTTP_PROTOCOL_COLUMN, record) == ()
        assert _values(PROTOCOL_COLUMN, record) == (Protocol.RTMP,)

    def test_unknown_url_out_of_scope(self):
        record = make_record(url="http://x/watch/123")
        assert _values(HTTP_PROTOCOL_COLUMN, record) == ()


class TestPlatformDimension:
    def test_classifies_device(self):
        assert _values(PLATFORM_COLUMN, make_record()) == (Platform.SET_TOP,)

    def test_unknown_device_out_of_scope(self):
        record = make_record(device_model="fridge")
        assert _values(PLATFORM_COLUMN, record) == ()


class TestFamilyDimension:
    def test_same_platform_classified(self):
        column = family_column(Platform.SET_TOP)
        assert _values(column, make_record()) == ("roku",)

    def test_other_platform_out_of_scope(self):
        column = family_column(Platform.MOBILE)
        assert _values(column, make_record()) == ()


class TestCdnDimension:
    def test_multi_valued(self):
        record = make_record(cdn_names=("A", "B"))
        assert _values(CDN_COLUMN, record) == ("A", "B")

    def test_weighted_values_split_evenly(self):
        record = make_record(cdn_names=("A", "B"))
        weighted = _weighted_values(CDN_COLUMN, record)
        assert weighted == (("A", 0.5), ("B", 0.5))

    def test_single_cdn_full_weight(self):
        weighted = _weighted_values(CDN_COLUMN, make_record())
        assert weighted == (("A", 1.0),)

    def test_view_hours_split_evenly(self):
        split = make_record(publisher_id="p1", cdn_names=("A", "B"))
        single = make_record(publisher_id="p2", cdn_names=("C",))
        dataset = Dataset([split, single])
        assert dataset.view_hours_by(CDN_COLUMN) == {
            "A": split.view_hours * 0.5,
            "B": split.view_hours * 0.5,
            "C": single.view_hours,
        }


def _two_snapshot_dataset():
    d1, d2 = date(2016, 1, 4), date(2018, 3, 12)
    return Dataset(
        [
            make_record(snapshot=d1, publisher_id="p1", weight=10),
            make_record(
                snapshot=d1,
                publisher_id="p2",
                url="http://x/v.mpd",
                weight=30,
            ),
            make_record(snapshot=d2, publisher_id="p1", weight=10),
            make_record(snapshot=d2, publisher_id="p2", weight=10),
        ]
    )


class TestSupportSeries:
    def test_publisher_percentages(self):
        series = publisher_support_series(
            _two_snapshot_dataset(), HTTP_PROTOCOL_COLUMN
        )
        first = series[date(2016, 1, 4)]
        assert first[Protocol.HLS] == 50.0
        assert first[Protocol.DASH] == 50.0
        latest = series[date(2018, 3, 12)]
        assert latest[Protocol.HLS] == 100.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError):
            publisher_support_series(Dataset([]), HTTP_PROTOCOL_COLUMN)


class TestShareSeries:
    def test_shares_sum_to_100(self, dataset):
        series = view_hour_share_series(dataset, PLATFORM_COLUMN)
        for shares in series.values():
            assert sum(shares.values()) == pytest.approx(100.0)

    def test_share_values(self):
        series = view_hour_share_series(
            _two_snapshot_dataset(), HTTP_PROTOCOL_COLUMN
        )
        first = series[date(2016, 1, 4)]
        assert first[Protocol.HLS] == pytest.approx(25.0)
        assert first[Protocol.DASH] == pytest.approx(75.0)

    def test_exclusion(self):
        series = view_hour_share_series(
            _two_snapshot_dataset(),
            HTTP_PROTOCOL_COLUMN,
            exclude_publishers=["p2"],
        )
        assert series[date(2016, 1, 4)][Protocol.HLS] == pytest.approx(100.0)

    def test_by_views_differs_from_view_hours(self, dataset):
        vh = view_hour_share_series(dataset, PLATFORM_COLUMN)
        views = view_hour_share_series(
            dataset, PLATFORM_COLUMN, by_views=True
        )
        latest = dataset.latest_snapshot()
        # Set-top views are long: view-hour share exceeds view share.
        assert vh[latest][Platform.SET_TOP] > views[latest][
            Platform.SET_TOP
        ]

    def test_excluding_everyone_rejected(self):
        data = _two_snapshot_dataset()
        with pytest.raises(AnalysisError):
            view_hour_share_series(
                data, HTTP_PROTOCOL_COLUMN, exclude_publishers=["p1", "p2"]
            )


class TestSeriesHelpers:
    def test_share_at_and_first_last(self):
        series = view_hour_share_series(
            _two_snapshot_dataset(), HTTP_PROTOCOL_COLUMN
        )
        assert series[date(2016, 1, 4)][Protocol.DASH] == 75.0
        first, last = first_last(series, Protocol.DASH)
        assert first == 75.0
        assert last == 0.0  # both latest-snapshot records are HLS

    def test_series_rows_printable(self):
        series = view_hour_share_series(
            _two_snapshot_dataset(), HTTP_PROTOCOL_COLUMN
        )
        rows = series_rows(series, [Protocol.HLS, Protocol.DASH])
        assert len(rows) == 2
        assert rows[0]["snapshot"] == "2016-01-04"
        assert rows[0]["HLS"] == 25.0
