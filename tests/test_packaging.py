"""Encoder, chunker, DRM, and the end-to-end packaging pipeline."""

import pytest

from repro.constants import Protocol
from repro.entities.ladder import BitrateLadder, Rendition
from repro.entities.video import Video
from repro.errors import PackagingError
from repro.packaging.chunker import Chunker
from repro.packaging.drm import DrmScheme, DrmWrapper
from repro.packaging.encoder import EncodeJob, Encoder
from repro.packaging.pipeline import PackagingPipeline
from repro.units import rendition_bytes


class TestEncoder:
    def test_output_bytes_match_storage_model(self, video, ladder):
        result = Encoder().encode(EncodeJob(video=video, ladder=ladder))
        expected = sum(
            rendition_bytes(b, video.duration_seconds)
            for b in ladder.bitrates_kbps
        )
        assert result.output_bytes == pytest.approx(expected)

    def test_per_rendition_bytes_sum(self, video, ladder):
        result = Encoder().encode(EncodeJob(video=video, ladder=ladder))
        assert sum(result.per_rendition_bytes) == pytest.approx(
            result.output_bytes
        )

    def test_cpu_scales_with_ladder_depth(self, video):
        shallow = BitrateLadder.from_bitrates((500,))
        deep = BitrateLadder.from_bitrates((500, 1000, 2000, 4000))
        encoder = Encoder()
        cpu_shallow = encoder.encode(
            EncodeJob(video=video, ladder=shallow)
        ).cpu_seconds
        cpu_deep = encoder.encode(
            EncodeJob(video=video, ladder=deep)
        ).cpu_seconds
        assert cpu_deep > cpu_shallow

    def test_h265_costs_more_cpu_than_h264(self, video):
        h264 = BitrateLadder.from_bitrates((2000,), codec="h264")
        h265 = BitrateLadder.from_bitrates((2000,), codec="h265")
        encoder = Encoder()
        assert encoder.encode(
            EncodeJob(video=video, ladder=h265)
        ).cpu_seconds > encoder.encode(
            EncodeJob(video=video, ladder=h264)
        ).cpu_seconds

    def test_unknown_codec_rejected(self, video):
        weird = BitrateLadder(
            [Rendition(bitrate_kbps=100, width=64, height=36, codec="av2")]
        )
        with pytest.raises(PackagingError):
            Encoder().encode(EncodeJob(video=video, ladder=weird))

    def test_live_latency_exceeds_chunk_duration(self, video, ladder):
        encoder = Encoder(cores=4)
        job = EncodeJob(video=video, ladder=ladder)
        latency = encoder.live_latency_seconds(job, 6.0)
        assert latency > 6.0  # §4.1: packaging adds delay to live

    def test_more_cores_reduce_live_latency(self, video, ladder):
        job = EncodeJob(video=video, ladder=ladder)
        slow = Encoder(cores=1).live_latency_seconds(job, 6.0)
        fast = Encoder(cores=32).live_latency_seconds(job, 6.0)
        assert fast < slow

    def test_needs_a_core(self):
        with pytest.raises(PackagingError):
            Encoder(cores=0)


class TestChunker:
    def test_chunk_count_rounds_up(self, video):
        assert Chunker(7.0).chunk_count(video) == 86  # ceil(600/7)

    def test_chunks_cover_duration_exactly(self, video, ladder):
        chunks = list(Chunker(7.0).chunks(video, ladder[0]))
        assert chunks[0].start_seconds == 0.0
        assert chunks[-1].end_seconds == pytest.approx(600.0)
        total = sum(c.duration_seconds for c in chunks)
        assert total == pytest.approx(600.0)

    def test_last_chunk_truncated(self, video, ladder):
        chunks = list(Chunker(7.0).chunks(video, ladder[0]))
        assert chunks[-1].duration_seconds == pytest.approx(600 - 85 * 7.0)

    def test_total_bytes_equal_cbr_model(self, video, ladder):
        rendition = ladder[2]
        total = Chunker(6.0).total_bytes(video, rendition)
        assert total == pytest.approx(
            rendition_bytes(rendition.bitrate_kbps, video.duration_seconds)
        )

    def test_indices_sequential(self, video, ladder):
        indices = [c.index for c in Chunker(6.0).chunks(video, ladder[0])]
        assert indices == list(range(100))

    def test_invalid_duration(self):
        with pytest.raises(PackagingError):
            Chunker(0)


class TestDrm:
    def test_encrypt_decrypt_roundtrip(self):
        wrapper = DrmWrapper(DrmScheme.WIDEVINE)
        payload = b"some chunk bytes" * 10
        assert wrapper.decrypt("v1", wrapper.encrypt("v1", payload)) == payload

    def test_ciphertext_differs_from_plaintext(self):
        wrapper = DrmWrapper(DrmScheme.WIDEVINE)
        assert wrapper.encrypt("v1", b"hello") != b"hello"

    def test_per_title_keys_differ(self):
        wrapper = DrmWrapper(DrmScheme.FAIRPLAY)
        assert wrapper.content_key("v1") != wrapper.content_key("v2")

    def test_license_authorization(self):
        wrapper = DrmWrapper(DrmScheme.PLAYREADY)
        license_ = wrapper.issue_license("v1", frozenset({"settop"}))
        assert license_.authorizes("v1", "settop")
        assert not license_.authorizes("v1", "browser")
        assert not license_.authorizes("v2", "settop")

    def test_license_needs_device_classes(self):
        wrapper = DrmWrapper(DrmScheme.PLAYREADY)
        with pytest.raises(PackagingError):
            wrapper.issue_license("v1", frozenset())

    def test_none_scheme_rejected(self):
        with pytest.raises(PackagingError):
            DrmWrapper(DrmScheme.NONE)


class TestPipeline:
    @pytest.fixture
    def pipeline(self):
        return PackagingPipeline(
            protocols=(Protocol.HLS, Protocol.DASH),
            chunk_duration_seconds=6.0,
        )

    def test_one_asset_per_protocol(self, pipeline, video, ladder):
        assets = pipeline.package(video, ladder, "http://cdn-a.example.net")
        assert [a.protocol for a in assets] == [Protocol.HLS, Protocol.DASH]

    def test_assets_carry_parseable_manifests(self, pipeline, video, ladder):
        from repro.packaging.manifest import parser_for

        for asset in pipeline.package(video, ladder, "http://cdn"):
            info = parser_for(asset.protocol).parse(asset.manifest_text)
            assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)

    def test_hls_asset_has_media_playlists(self, pipeline, video, ladder):
        assets = pipeline.package(video, ladder, "http://cdn")
        hls = next(a for a in assets if a.protocol is Protocol.HLS)
        assert len(hls.media_playlists) == len(ladder)

    def test_asset_bytes_equal_encode_output(self, pipeline, video, ladder):
        assets = pipeline.package(video, ladder, "http://cdn")
        encode = pipeline.encode(video, ladder)
        for asset in assets:
            assert asset.total_bytes == pytest.approx(encode.output_bytes)

    def test_packaging_overhead_scales_with_protocols(self, video, ladder):
        one = PackagingPipeline(protocols=(Protocol.HLS,))
        two = PackagingPipeline(protocols=(Protocol.HLS, Protocol.DASH))
        storage_one = one.packaging_overhead(video, ladder)["storage_bytes"]
        storage_two = two.packaging_overhead(video, ladder)["storage_bytes"]
        assert storage_two == pytest.approx(2 * storage_one)

    def test_rtmp_rejected(self):
        with pytest.raises(PackagingError):
            PackagingPipeline(protocols=(Protocol.RTMP,))

    def test_duplicate_protocols_rejected(self):
        with pytest.raises(PackagingError):
            PackagingPipeline(protocols=(Protocol.HLS, Protocol.HLS))

    def test_empty_protocols_rejected(self):
        with pytest.raises(PackagingError):
            PackagingPipeline(protocols=())
