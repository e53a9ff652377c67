"""Manifest writers and parsers for all four protocols."""

import pytest

from repro.constants import ContentType, Protocol
from repro.entities.video import Video
from repro.errors import ManifestError, ManifestParseError
from repro.packaging.manifest import manifest_writer_for, parser_for
from repro.packaging.manifest.dash import DASHParser, DASHWriter
from repro.packaging.manifest.hds import HDSParser, HDSWriter
from repro.packaging.manifest.hls import HLSParser, HLSWriter
from repro.packaging.manifest.mss import MSSParser, MSSWriter

BASE_URL = "http://cdn-a.example.net"


class TestHLS:
    @pytest.fixture
    def writer(self):
        return HLSWriter(chunk_duration_seconds=6.0)

    def test_master_contains_all_variants(self, writer, video, ladder):
        master = writer.render(video, ladder, BASE_URL)
        assert master.startswith("#EXTM3U")
        assert master.count("#EXT-X-STREAM-INF") == len(ladder)

    def test_master_roundtrip_bitrates(self, writer, video, ladder):
        info = HLSParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.protocol is Protocol.HLS
        assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)
        assert info.video_id == video.video_id

    def test_media_playlist_segment_count(self, writer, video, ladder):
        media = writer.render_media(video, ladder[0], BASE_URL)
        # 600 s at 6 s chunks = 100 segments.
        assert media.count("#EXTINF:") == 100
        assert "#EXT-X-TARGETDURATION:6\n" in media

    def test_media_playlist_has_endlist(self, writer, video, ladder):
        media = writer.render_media(video, ladder[0], BASE_URL)
        assert media.rstrip().endswith("#EXT-X-ENDLIST")

    def test_final_segment_truncated(self, writer, ladder):
        video = Video(video_id="v", duration_seconds=9.0)
        media = writer.render_media(video, ladder[0], BASE_URL)
        assert "#EXTINF:3.000," in media

    def test_parse_rejects_non_playlist(self):
        with pytest.raises(ManifestParseError):
            HLSParser().parse("<xml/>")

    def test_parse_rejects_variantless_master(self):
        with pytest.raises(ManifestParseError):
            HLSParser().parse("#EXTM3U\n#EXT-X-VERSION:4\n")

    def test_manifest_url_uses_m3u8(self, writer, video):
        assert writer.manifest_url(video, BASE_URL).endswith("master.m3u8")


class TestDASH:
    @pytest.fixture
    def writer(self):
        return DASHWriter(chunk_duration_seconds=4.0)

    def test_roundtrip(self, writer, video, ladder):
        info = DASHParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.protocol is Protocol.DASH
        assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)
        assert info.video_id == video.video_id
        assert info.chunk_duration_seconds == pytest.approx(4.0)

    def test_audio_adaptation_set(self, writer, video, ladder):
        info = DASHParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.audio_bitrates_kbps == pytest.approx((96.0,))

    def test_chunk_urls_enumerate_segments(self, writer, video, ladder):
        info = DASHParser().parse(writer.render(video, ladder, BASE_URL))
        # 600 s / 4 s = 150 per rendition.
        assert len(info.chunk_urls) == 150 * len(ladder)
        assert all(url.endswith(".m4s") for url in info.chunk_urls)

    def test_parse_rejects_non_xml(self):
        with pytest.raises(ManifestParseError):
            DASHParser().parse("#EXTM3U")

    def test_parse_rejects_wrong_root(self):
        with pytest.raises(ManifestParseError):
            DASHParser().parse("<foo/>")

    def test_manifest_url_uses_mpd(self, writer, video):
        assert writer.manifest_url(video, BASE_URL).endswith("master.mpd")


class TestMSS:
    @pytest.fixture
    def writer(self):
        return MSSWriter(chunk_duration_seconds=2.0)

    def test_roundtrip(self, writer, video, ladder):
        info = MSSParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.protocol is Protocol.MSS
        assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)
        assert info.chunk_duration_seconds == pytest.approx(2.0)

    def test_manifest_url_matches_table1_shape(self, writer, video):
        url = writer.manifest_url(video, BASE_URL)
        assert url.endswith(".ism/manifest")

    def test_live_uses_isml(self, writer):
        live = Video(
            video_id="live1",
            duration_seconds=60,
            content_type=ContentType.LIVE,
        )
        assert ".isml/" in writer.manifest_url(live, BASE_URL)

    def test_fragment_urls_use_quality_levels(self, writer, video, ladder):
        info = MSSParser().parse(writer.render(video, ladder, BASE_URL))
        assert any("QualityLevels(" in url for url in info.chunk_urls)

    def test_parse_rejects_wrong_root(self):
        with pytest.raises(ManifestParseError):
            MSSParser().parse("<MPD/>")


class TestHDS:
    @pytest.fixture
    def writer(self):
        return HDSWriter(chunk_duration_seconds=6.0)

    def test_roundtrip(self, writer, video, ladder):
        info = HDSParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.protocol is Protocol.HDS
        assert info.bitrates_kbps == pytest.approx(ladder.bitrates_kbps)
        assert info.video_id == video.video_id

    def test_bootstrap_carries_chunk_duration(self, writer, video, ladder):
        info = HDSParser().parse(writer.render(video, ladder, BASE_URL))
        assert info.chunk_duration_seconds == pytest.approx(6.0)

    def test_fragment_urls(self, writer, video, ladder):
        info = HDSParser().parse(writer.render(video, ladder, BASE_URL))
        assert len(info.chunk_urls) == 100 * len(ladder)
        assert all("Frag" in url for url in info.chunk_urls)

    def test_manifest_url_uses_f4m(self, writer, video):
        assert writer.manifest_url(video, BASE_URL).endswith("master.f4m")

    def test_parse_rejects_garbled_bootstrap(self, writer, video, ladder):
        text = writer.render(video, ladder, BASE_URL)
        garbled = text.replace("abst", "xxxx", 1)
        # bootstrap payload is base64 of 'abst:...'; replace post-encode
        import base64, re

        payload = base64.b64encode(b"nope").decode()
        garbled = re.sub(
            r'(bootstrapInfoId="bootstrap1" /)',
            r"\1",
            text,
        )
        broken = re.sub(
            r">[A-Za-z0-9+/=]+</",
            f">{payload}</",
            text,
            count=1,
        )
        with pytest.raises(ManifestParseError):
            HDSParser().parse(broken)


class TestFactories:
    @pytest.mark.parametrize(
        "protocol", [Protocol.HLS, Protocol.DASH, Protocol.MSS, Protocol.HDS]
    )
    def test_writer_parser_pairing(self, protocol, video, ladder):
        writer = manifest_writer_for(protocol, chunk_duration_seconds=6.0)
        parser = parser_for(protocol)
        info = parser.parse(writer.render(video, ladder, BASE_URL))
        assert info.protocol is protocol

    def test_rtmp_has_no_manifest(self):
        with pytest.raises(ManifestError):
            manifest_writer_for(Protocol.RTMP)
        with pytest.raises(ManifestError):
            parser_for(Protocol.RTMP)

    def test_bad_chunk_duration(self):
        with pytest.raises(ManifestError):
            manifest_writer_for(Protocol.HLS, chunk_duration_seconds=0)
