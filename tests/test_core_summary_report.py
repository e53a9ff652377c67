"""§4.4 summaries and report formatting (repro.core)."""

from datetime import date

import pytest

from repro.constants import ContentType, Protocol
from repro.core.report import format_table
from repro.core.summary import (
    headline_summary,
    live_vod_cdn_segregation,
    rtmp_share,
    summarize_dimension,
    top_cdn_concentration,
)
from repro.core.dimensions import HTTP_PROTOCOL_COLUMN
from repro.errors import AnalysisError
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


class TestHeadlineSummary:
    def test_three_dimensions_reported(self, dataset):
        summaries = headline_summary(dataset)
        assert set(summaries) == {"protocols", "platforms", "cdns"}

    def test_weighted_exceeds_plain_average(self, dataset):
        for summary in headline_summary(dataset).values():
            assert summary.weighted_average_count > summary.average_count

    def test_multi_instance_view_hours_dominate(self, dataset):
        # §4.4: >90% of view-hours from multi-protocol / multi-CDN /
        # multi-platform publishers.
        for summary in headline_summary(dataset).values():
            assert summary.pct_view_hours_multi > 85.0

    def test_weighted_averages_near_paper(self, dataset):
        summaries = headline_summary(dataset)
        assert 1.8 < summaries["protocols"].weighted_average_count < 3.0
        assert 4.0 < summaries["platforms"].weighted_average_count < 5.0
        assert 4.0 < summaries["cdns"].weighted_average_count < 5.0

    def test_summarize_single_dimension(self, dataset):
        summary = summarize_dimension(dataset, HTTP_PROTOCOL_COLUMN)
        assert summary == headline_summary(dataset)["protocols"]


class TestRtmp:
    def test_rtmp_declines(self, dataset):
        shares = rtmp_share(dataset)
        assert shares["first"] > 0.1
        assert shares["latest"] < 0.3
        assert shares["latest"] < shares["first"]

    def test_unclassifiable_snapshot_rejected(self):
        d = date(2018, 3, 12)
        data = Dataset([make_record(snapshot=d, url="http://x/watch/1")])
        with pytest.raises(AnalysisError):
            rtmp_share(data)


class TestCdnConcentration:
    def test_top5_serve_most_view_hours(self, latest):
        # §4.3: >93% of view-hours from 5 of 36 CDNs.
        assert top_cdn_concentration(latest, n=5) > 90.0

    def test_monotone_in_n(self, latest):
        assert top_cdn_concentration(latest, 1) < top_cdn_concentration(
            latest, 5
        )

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            top_cdn_concentration(Dataset([]))


class TestSegregation:
    def test_synthetic_rates_near_paper(self, latest):
        stats = live_vod_cdn_segregation(latest)
        assert stats.eligible_publishers > 10
        assert 15.0 < stats.pct_with_vod_only_cdn < 50.0
        assert 5.0 < stats.pct_with_live_only_cdn < 40.0

    def test_manual_case(self):
        d = date(2018, 3, 12)
        data = Dataset(
            [
                # p1: CDN A live+vod, CDN B vod only.
                make_record(
                    snapshot=d, publisher_id="p1", cdn_names=("A",),
                    content_type=ContentType.LIVE,
                ),
                make_record(
                    snapshot=d, publisher_id="p1", cdn_names=("A",),
                    content_type=ContentType.VOD,
                ),
                make_record(
                    snapshot=d, publisher_id="p1", cdn_names=("B",),
                    content_type=ContentType.VOD,
                ),
            ]
        )
        stats = live_vod_cdn_segregation(data)
        assert stats.eligible_publishers == 1
        assert stats.pct_with_vod_only_cdn == 100.0
        assert stats.pct_with_live_only_cdn == 0.0

    def test_single_cdn_publishers_ineligible(self):
        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(
                    snapshot=d, publisher_id="p1",
                    content_type=ContentType.LIVE,
                ),
                make_record(
                    snapshot=d, publisher_id="p1",
                    content_type=ContentType.VOD,
                ),
            ]
        )
        with pytest.raises(AnalysisError):
            live_vod_cdn_segregation(data)


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            {"name": "alpha", "value": 1.234},
            {"name": "b", "value": 22.5},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in lines[2]
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
