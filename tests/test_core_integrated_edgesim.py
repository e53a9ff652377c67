"""Integrated syndication what-ifs and the edge-cache study (extensions)."""

import numpy as np
import pytest

from repro.core.integrated import (
    accounting_report,
    integrated_qoe_projection,
    owner_share_of_cdn,
    project_all_syndicators,
)
from repro.delivery.edgesim import EdgeSyndicationStudy
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.errors import AnalysisError, DeliveryError
from repro.synthesis.catalogues import case_video_id
from repro.telemetry.dataset import Dataset
from tests.test_telemetry_records import make_record


class TestQoeProjection:
    def test_integration_lifts_s7_bitrate(self, eco):
        projection = integrated_qoe_projection(
            eco.case_study, "S7", "X", "A", sessions=80
        )
        # S7's 2 Mbps cap disappears once it serves the owner's ladder.
        assert projection.bitrate_gain > 1.5
        assert projection.after_median_kbps > 3000

    def test_integration_reduces_s7_rebuffering(self, eco):
        projection = integrated_qoe_projection(
            eco.case_study, "S7", "X", "A", sessions=80
        )
        # The 800 kbps floor goes away too.
        assert projection.rebuffer_reduction > 0.0

    def test_strong_syndicators_change_little(self, eco):
        # S6 already runs a dense 10-rung ladder up to 8 Mbps:
        # integration is roughly neutral for it.
        projection = integrated_qoe_projection(
            eco.case_study, "S6", "X", "A", sessions=80
        )
        assert 0.7 < projection.bitrate_gain < 1.3

    def test_projection_deterministic_by_seed(self, eco):
        a = integrated_qoe_projection(
            eco.case_study, "S2", "X", "A", sessions=50, seed=3
        )
        b = integrated_qoe_projection(
            eco.case_study, "S2", "X", "A", sessions=50, seed=3
        )
        assert a.after_median_kbps == b.after_median_kbps

    def test_project_all_covers_every_syndicator(self, eco):
        projections = project_all_syndicators(
            eco.case_study, sessions=20
        )
        assert set(projections) == set(eco.case_study.syndicator_labels)

    def test_session_minimum(self, eco):
        with pytest.raises(AnalysisError):
            integrated_qoe_projection(
                eco.case_study, "S7", "X", "A", sessions=2
            )


class TestAccounting:
    def test_report_totals(self):
        from datetime import date

        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(
                    snapshot=d, publisher_id="owner", cdn_names=("A",),
                    weight=10, view_duration_hours=1.0,
                    avg_bitrate_kbps=4000,
                ),
                make_record(
                    snapshot=d, publisher_id="syn", cdn_names=("A",),
                    weight=10, view_duration_hours=1.0,
                    avg_bitrate_kbps=2000,
                ),
            ]
        )
        report = accounting_report(data, "A")
        assert set(report) == {"owner", "syn"}
        # owner delivered twice the bytes at twice the bitrate.
        assert report["owner"].delivered_gigabytes == pytest.approx(
            2 * report["syn"].delivered_gigabytes
        )
        assert owner_share_of_cdn(data, "A", "owner") == pytest.approx(
            2 / 3
        )

    def test_multi_cdn_traffic_split(self):
        from datetime import date

        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(
                    snapshot=d, publisher_id="p", cdn_names=("A", "B"),
                    weight=10, view_duration_hours=1.0,
                )
            ]
        )
        report = accounting_report(data, "A")
        assert report["p"].view_hours == pytest.approx(5.0)

    def test_video_filter(self, dataset, eco):
        study = eco.case_study
        report = accounting_report(dataset, "A", case_video_id())
        # Only case-study participants touched that video on CDN A.
        participant_ids = set(study.labels.values())
        assert set(report) <= participant_ids

    def test_unused_cdn_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            accounting_report(dataset, "NO_SUCH_CDN")

    def test_mean_bitrate_consistency(self):
        from datetime import date

        d = date(2018, 3, 12)
        data = Dataset(
            [
                make_record(
                    snapshot=d, publisher_id="p", cdn_names=("A",),
                    weight=4, view_duration_hours=0.5,
                    avg_bitrate_kbps=3000,
                )
            ]
        )
        entry = accounting_report(data, "A")["p"]
        assert entry.mean_bitrate_kbps == pytest.approx(3000.0)


@pytest.fixture
def edge_study():
    catalogue = Catalogue(
        "series", [Video(f"e{i}", 1500.0) for i in range(40)]
    )
    ladders = {
        "owner": BitrateLadder.from_bitrates((150, 400, 900, 2000, 4500)),
        "syn1": BitrateLadder.from_bitrates((180, 700, 1500, 3600)),
        "syn2": BitrateLadder.from_bitrates((800, 1400, 2000)),
    }
    return EdgeSyndicationStudy(
        catalogue=catalogue,
        ladders=ladders,
        owner_id="owner",
        cache_capacity_bytes=2e9,
    )


class TestEdgeSyndicationStudy:
    def test_integration_improves_hit_ratio(self, edge_study, rng):
        results = edge_study.compare(rng, n_sessions=400)
        independent = results["independent"]
        integrated = results["integrated"]
        assert integrated.hit_ratio > independent.hit_ratio
        assert integrated.origin_gigabytes < independent.origin_gigabytes

    def test_same_request_count_across_regimes(self, edge_study, rng):
        results = edge_study.compare(rng, n_sessions=200)
        assert (
            results["independent"].requests
            == results["integrated"].requests
        )

    def test_origin_offload_bounds(self, edge_study, rng):
        for result in edge_study.compare(rng, n_sessions=200).values():
            assert 0.0 <= result.origin_offload <= 1.0

    def test_requests_reference_catalogue(self, edge_study, rng):
        requests = edge_study.sample_requests(rng, 50)
        video_ids = set(edge_study.catalogue.video_ids)
        for publisher, video_id, bitrate, index in requests:
            assert publisher in edge_study.ladders
            assert video_id in video_ids
            assert bitrate in edge_study.ladders[publisher].bitrates_kbps

    def test_unknown_regime_rejected(self, edge_study, rng):
        requests = edge_study.sample_requests(rng, 10)
        with pytest.raises(DeliveryError):
            edge_study.replay(requests, "federated")

    def test_construction_validation(self):
        catalogue = Catalogue("c", [Video("v", 100.0)])
        ladder = BitrateLadder.from_bitrates((500,))
        with pytest.raises(DeliveryError):
            EdgeSyndicationStudy(
                catalogue=catalogue,
                ladders={"owner": ladder},
                owner_id="owner",
                cache_capacity_bytes=1e9,
            )
        with pytest.raises(DeliveryError):
            EdgeSyndicationStudy(
                catalogue=catalogue,
                ladders={"a": ladder, "b": ladder},
                owner_id="missing",
                cache_capacity_bytes=1e9,
            )
