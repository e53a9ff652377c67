"""Integration: packaging -> delivery -> playback -> telemetry loops."""

import numpy as np
import pytest

from repro.constants import ContentType, Protocol
from repro.delivery.edge import EdgeCache
from repro.delivery.network import NetworkPath
from repro.delivery.origin import OriginServer
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.packaging.manifest import parser_for
from repro.packaging.manifest.detect import detect_protocol
from repro.packaging.pipeline import PackagingPipeline
from repro.playback.abr import ThroughputAbr
from repro.playback.session import SessionConfig, simulate_session
from repro.telemetry.dataset import Dataset


class TestPackageAndDetect:
    """The §3 methodology loop: publish manifests, then infer the
    protocol back from the published URLs alone."""

    def test_every_published_url_detects_correctly(self, video, ladder):
        pipeline = PackagingPipeline(
            protocols=(
                Protocol.HLS,
                Protocol.DASH,
                Protocol.MSS,
                Protocol.HDS,
            )
        )
        assets = pipeline.package(video, ladder, "http://cdn-a.example.net")
        for asset in assets:
            assert detect_protocol(asset.manifest_url) is asset.protocol

    def test_manifest_ladder_survives_roundtrip(self, video, ladder):
        pipeline = PackagingPipeline(protocols=(Protocol.DASH,))
        asset = pipeline.package(video, ladder, "http://cdn")[0]
        info = parser_for(Protocol.DASH).parse(asset.manifest_text)
        assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)


class TestPackageAndStore:
    def test_asset_bytes_match_origin_accounting(self, ladder):
        videos = [Video(f"v{i}", 600.0 * (i + 1)) for i in range(3)]
        catalogue = Catalogue("c", videos)
        pipeline = PackagingPipeline(protocols=(Protocol.HLS,))
        asset_bytes = sum(
            pipeline.package(v, ladder, "http://cdn")[0].total_bytes
            for v in videos
        )
        origin = OriginServer("A")
        origin.push_catalogue("pub", catalogue, ladder)
        assert origin.total_bytes() == pytest.approx(asset_bytes, rel=1e-9)


class TestStreamThroughEdge:
    def test_second_viewer_hits_cache(self, video, ladder, rng):
        pipeline = PackagingPipeline(protocols=(Protocol.HLS,))
        asset = pipeline.package(video, ladder, "http://cdn")[0]
        cache = EdgeCache(capacity_bytes=1e12)
        for viewer in range(2):
            for chunk in asset.chunks:
                cache.request(
                    (chunk.video_id, chunk.bitrate_kbps, chunk.index),
                    chunk.size_bytes,
                )
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_playback_over_packaged_ladder(self, video, ladder, rng):
        path = NetworkPath(
            isp="X", cdn_name="A", median_kbps=3000, sigma=0.3
        )
        result = simulate_session(
            ladder,
            path,
            SessionConfig(view_seconds=video.duration_seconds),
            rng,
            abr=ThroughputAbr(),
        )
        assert (
            ladder.min_bitrate_kbps
            <= result.average_bitrate_kbps
            <= ladder.max_bitrate_kbps
        )


class TestDatasetRoundtripAtScale:
    def test_generated_dataset_roundtrips_through_disk(
        self, dataset, tmp_path
    ):
        sample = Dataset(dataset.records[:500])
        path = tmp_path / "sample.jsonl.gz"
        sample.save(path)
        loaded = Dataset.load(path)
        assert loaded.records == sample.records

    def test_every_record_is_classifiable(self, dataset):
        from repro.core.dimensions import PLATFORM_COLUMN, PROTOCOL_COLUMN

        sample = dataset.records[:2000]
        for column, field in (
            (PROTOCOL_COLUMN, "url"),
            (PLATFORM_COLUMN, "device_model"),
        ):
            classified = Dataset(sample).entries(column).rows
            missing = set(range(len(sample))) - set(classified.tolist())
            assert not missing, [
                getattr(sample[i], field) for i in sorted(missing)[:5]
            ]

    def test_live_records_only_from_live_publishers(self, dataset, eco):
        live_serving = {
            p.publisher_id for p in eco.publishers if p.serves_live
        }
        for record in dataset.records[:2000]:
            if record.content_type is ContentType.LIVE:
                assert record.publisher_id in live_serving

    def test_syndicated_records_reference_real_owners(self, dataset, eco):
        publisher_ids = {p.publisher_id for p in eco.publishers}
        for record in dataset.records[:5000]:
            if record.is_syndicated:
                assert record.owner_id in publisher_ids
                assert record.owner_id != record.publisher_id


class TestWeightInvariance:
    """Analyses must not care whether views are weighted or exploded."""

    @pytest.fixture(scope="class")
    def pair(self, dataset):
        small = Dataset(
            [
                record
                for record in dataset.latest().records
                if record.publisher_id in ("pub_100", "pub_101", "pub_102")
            ]
        )
        # Cap and round weights so the exploded dataset stays small and
        # integral (generator weights are fractional view counts).
        capped = Dataset(
            [
                type(record).from_json_dict(
                    {
                        **record.to_json_dict(),
                        "weight": max(1.0, round(min(record.weight, 50))),
                    }
                )
                for record in small
            ]
        )
        return capped, capped.explode()

    def test_view_hours_invariant(self, pair):
        weighted, exploded = pair
        assert weighted.total_view_hours() == pytest.approx(
            exploded.total_view_hours()
        )

    def test_share_series_invariant(self, pair):
        from repro.core.dimensions import HTTP_PROTOCOL_COLUMN
        from repro.core.prevalence import view_hour_share_series

        weighted, exploded = pair
        a = view_hour_share_series(weighted, HTTP_PROTOCOL_COLUMN)
        b = view_hour_share_series(exploded, HTTP_PROTOCOL_COLUMN)
        for snapshot in a:
            for key in a[snapshot]:
                assert a[snapshot][key] == pytest.approx(
                    b[snapshot].get(key, 0.0)
                )

    def test_counts_invariant(self, pair):
        from repro.core.counts import publisher_counts
        from repro.core.dimensions import CDN_COLUMN

        weighted, exploded = pair
        assert publisher_counts(weighted, CDN_COLUMN) == publisher_counts(
            exploded, CDN_COLUMN
        )
