"""Property-based tests for domain invariants: ladders, manifests,
origin dedup, chunking, records."""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ContentType, Protocol
from repro.delivery.origin import OriginServer
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.packaging.chunker import Chunker
from repro.packaging.manifest import manifest_writer_for, parser_for
from repro.packaging.manifest.detect import (
    detect_protocol,
    sample_manifest_url,
)
from repro.telemetry.records import ViewRecord

# Strategy: strictly increasing bitrate lists (ladders).
ladders = st.lists(
    st.floats(min_value=50, max_value=20_000, allow_nan=False),
    min_size=1,
    max_size=12,
    unique=True,
).map(sorted).filter(
    lambda rates: all(b / a > 1.001 for a, b in zip(rates, rates[1:]))
)

durations = st.floats(min_value=10.0, max_value=20_000.0, allow_nan=False)

video_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=16
)


class TestLadderProperties:
    @given(ladders)
    def test_construction_preserves_rates(self, rates):
        ladder = BitrateLadder.from_bitrates(rates)
        assert list(ladder.bitrates_kbps) == pytest.approx(rates)

    @given(ladders, st.floats(min_value=1, max_value=50_000))
    def test_nearest_at_most_never_overshoots_unless_floored(
        self, rates, throughput
    ):
        ladder = BitrateLadder.from_bitrates(rates)
        choice = ladder.nearest_at_most(throughput)
        if choice.bitrate_kbps > throughput:
            assert choice.bitrate_kbps == ladder.min_bitrate_kbps


class TestManifestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        ladders,
        durations,
        st.sampled_from(
            [Protocol.HLS, Protocol.DASH, Protocol.MSS, Protocol.HDS]
        ),
    )
    def test_roundtrip_preserves_ladder(self, rates, duration, protocol):
        video = Video(video_id="prop", duration_seconds=duration)
        ladder = BitrateLadder.from_bitrates(rates)
        writer = manifest_writer_for(protocol, chunk_duration_seconds=6.0)
        info = parser_for(protocol).parse(
            writer.render(video, ladder, "http://cdn")
        )
        assert info.protocol is protocol
        assert len(info.bitrates_kbps) == len(rates)
        # HDS encodes integer kbps (F4M spec), so allow 0.5 kbps slack.
        assert list(info.bitrates_kbps) == pytest.approx(
            rates, rel=1e-3, abs=0.51
        )

    @given(
        video_ids,
        st.sampled_from(
            [
                Protocol.HLS,
                Protocol.DASH,
                Protocol.MSS,
                Protocol.HDS,
                Protocol.RTMP,
            ]
        ),
    )
    def test_minted_urls_always_detect(self, video_id, protocol):
        url = sample_manifest_url(protocol, video_id, "edge.example.net")
        assert detect_protocol(url) is protocol


class TestChunkerProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        durations,
        st.floats(min_value=1.0, max_value=30.0),
        st.floats(min_value=50, max_value=10_000),
    )
    def test_chunks_partition_the_video(self, duration, chunk_s, bitrate):
        video = Video(video_id="v", duration_seconds=duration)
        ladder = BitrateLadder.from_bitrates((bitrate,))
        chunks = list(Chunker(chunk_s).chunks(video, ladder[0]))
        assert chunks[0].start_seconds == 0.0
        for a, b in zip(chunks, chunks[1:]):
            assert b.start_seconds == pytest.approx(a.end_seconds)
        assert chunks[-1].end_seconds == pytest.approx(duration)
        total = sum(c.duration_seconds for c in chunks)
        assert total == pytest.approx(duration)


class TestOriginProperties:
    @settings(max_examples=40, deadline=None)
    @given(ladders, ladders, st.floats(min_value=0.0, max_value=0.25))
    def test_dedup_bounded_and_conservative(self, rates_a, rates_b, tol):
        catalogue = Catalogue("c", [Video("v", 1000.0)])
        origin = OriginServer("A")
        origin.push_catalogue(
            "p1", catalogue, BitrateLadder.from_bitrates(rates_a)
        )
        origin.push_catalogue(
            "p2", catalogue, BitrateLadder.from_bitrates(rates_b)
        )
        total = origin.total_bytes()
        kept = origin.deduplicated_bytes(tol)
        assert 0 < kept <= total * (1 + 1e-9) + 1e-3
        # Dedup never drops below the single largest rendition.
        biggest = max(max(rates_a), max(rates_b)) * 125.0 * 1000.0
        assert kept >= biggest - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(ladders, ladders)
    def test_integrated_keeps_exactly_owner_bytes(self, rates_o, rates_s):
        catalogue = Catalogue("c", [Video("v", 1000.0)])
        origin = OriginServer("A")
        owner_ladder = BitrateLadder.from_bitrates(rates_o)
        origin.push_catalogue("owner", catalogue, owner_ladder)
        origin.push_catalogue(
            "syn", catalogue, BitrateLadder.from_bitrates(rates_s)
        )
        assert origin.integrated_bytes("owner") == pytest.approx(
            catalogue.storage_bytes(owner_ladder)
        )

    @settings(max_examples=40, deadline=None)
    @given(ladders)
    def test_zero_tolerance_identical_copies_halve(self, rates):
        catalogue = Catalogue("c", [Video("v", 500.0)])
        origin = OriginServer("A")
        origin.push_catalogue(
            "p1", catalogue, BitrateLadder.from_bitrates(rates)
        )
        origin.push_catalogue(
            "p2", catalogue, BitrateLadder.from_bitrates(rates)
        )
        assert origin.deduplicated_bytes(0.0) == pytest.approx(
            origin.total_bytes() / 2
        )


class TestRecordProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.001, max_value=24.0),
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_json_roundtrip_any_values(self, duration, weight, rebuffer):
        record = ViewRecord(
            snapshot=date(2017, 6, 5),
            publisher_id="p",
            url="http://x/v/master.m3u8",
            device_model="ipad",
            os_name="ios",
            cdn_names=("A",),
            bitrate_ladder_kbps=(100.0,),
            view_duration_hours=duration,
            avg_bitrate_kbps=90.0,
            rebuffer_ratio=rebuffer,
            content_type=ContentType.LIVE,
            video_id="v",
            weight=float(weight),
        )
        assert ViewRecord.from_json(record.to_json()) == record
