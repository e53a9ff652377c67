"""Per-publisher counts, buckets, and longitudinal trends (repro.core)."""

from datetime import date

import pytest

from repro.core.buckets import bucketed_counts
from repro.core.counts import (
    count_distribution,
    publisher_counts,
    share_with_count_above,
)
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
)
from repro.core.trends import count_trend
from repro.errors import AnalysisError
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


def _counting_dataset():
    d = date(2018, 3, 12)
    return Dataset(
        [
            # p1: HLS only, tiny.
            make_record(snapshot=d, publisher_id="p1", weight=1),
            # p2: HLS + DASH, large.
            make_record(snapshot=d, publisher_id="p2", weight=50),
            make_record(
                snapshot=d,
                publisher_id="p2",
                url="http://x/v.mpd",
                weight=50,
            ),
        ]
    )


class TestPublisherCounts:
    def test_distinct_values_counted(self):
        counts = publisher_counts(_counting_dataset(), HTTP_PROTOCOL_COLUMN)
        assert counts == {"p1": 1, "p2": 2}

    def test_repeated_value_counted_once(self):
        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(snapshot=d, publisher_id="p1"),
                make_record(snapshot=d, publisher_id="p1"),
            ]
        )
        assert publisher_counts(data, HTTP_PROTOCOL_COLUMN) == {"p1": 1}

    def test_cdn_counts_union_multi_cdn_views(self):
        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(snapshot=d, publisher_id="p1", cdn_names=("A", "B")),
                make_record(snapshot=d, publisher_id="p1", cdn_names=("C",)),
            ]
        )
        assert publisher_counts(data, CDN_COLUMN) == {"p1": 3}

    def test_out_of_scope_dataset_rejected(self):
        d = date(2018, 3, 12)
        data = Dataset(
            [make_record(snapshot=d, url="http://x/watch/1")]
        )
        with pytest.raises(AnalysisError):
            publisher_counts(data, HTTP_PROTOCOL_COLUMN)


class TestCountDistribution:
    def test_rows(self):
        rows = count_distribution(_counting_dataset(), HTTP_PROTOCOL_COLUMN)
        by_count = {r.count: r for r in rows}
        assert by_count[1].percent_publishers == 50.0
        assert by_count[1].percent_view_hours < 5.0
        assert by_count[2].percent_view_hours > 95.0

    def test_percentages_sum(self, latest):
        rows = count_distribution(latest, HTTP_PROTOCOL_COLUMN)
        assert sum(r.percent_publishers for r in rows) == pytest.approx(100)
        assert sum(r.percent_view_hours for r in rows) == pytest.approx(100)

    def test_share_above_threshold(self):
        rows = count_distribution(_counting_dataset(), HTTP_PROTOCOL_COLUMN)
        multi = share_with_count_above(rows, 1)
        assert multi["percent_publishers"] == 50.0
        assert multi["percent_view_hours"] > 95.0

    def test_share_above_requires_rows(self):
        with pytest.raises(AnalysisError):
            share_with_count_above([], 1)


class TestBuckets:
    def test_bucketing_normalizes_to_daily(self, latest, eco):
        buckets = bucketed_counts(latest, HTTP_PROTOCOL_COLUMN)
        assert sum(buckets.publisher_counts()) == len(
            publisher_counts(latest, HTTP_PROTOCOL_COLUMN)
        )

    def test_stacked_rows(self, latest):
        rows = bucketed_counts(latest, HTTP_PROTOCOL_COLUMN).stacked_rows()
        assert len(rows) == 7
        assert all("count_histogram" in row for row in rows)

    def test_modal_bucket_is_100x_1000x(self, latest):
        # §4.1: the tallest bar is the 100X-1000X bucket.
        buckets = bucketed_counts(latest, HTTP_PROTOCOL_COLUMN)
        shares = buckets.publisher_share()
        assert shares.index(max(shares)) == 3


class TestTrends:
    def test_weighted_average_above_plain(self, dataset):
        # Figs 3c/9c/12c: larger publishers support more instances.
        points = count_trend(dataset, CDN_COLUMN)
        for point in points:
            assert point.weighted_average > point.average

    def test_one_point_per_snapshot(self, dataset):
        points = count_trend(dataset, HTTP_PROTOCOL_COLUMN)
        assert len(points) == len(dataset.snapshots())

    def test_growth_computation(self, dataset):
        points = count_trend(dataset, PLATFORM_COLUMN)
        first, last = points[0], points[-1]
        # §4.2: platform counts grew over the study for both curves.
        assert last.average > 1.10 * first.average
        assert last.weighted_average > 1.05 * first.weighted_average

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError):
            count_trend(Dataset([]), HTTP_PROTOCOL_COLUMN)
