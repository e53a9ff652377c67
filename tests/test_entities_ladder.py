"""Bitrate ladders (repro.entities.ladder)."""

import pytest

from repro.entities.ladder import (
    BitrateLadder,
    Rendition,
    resolution_for_bitrate,
)
from repro.errors import LadderError


class TestRendition:
    def test_total_bitrate_includes_audio(self):
        rendition = Rendition(
            bitrate_kbps=1000, width=1280, height=720, audio_bitrate_kbps=96
        )
        assert rendition.total_bitrate_kbps == 1096

    def test_resolution_property(self):
        rendition = Rendition(bitrate_kbps=1000, width=1280, height=720)
        assert rendition.resolution == (1280, 720)

    def test_invalid_bitrate(self):
        with pytest.raises(LadderError):
            Rendition(bitrate_kbps=0, width=1, height=1)

    def test_invalid_resolution(self):
        with pytest.raises(LadderError):
            Rendition(bitrate_kbps=100, width=0, height=100)

    def test_negative_audio(self):
        with pytest.raises(LadderError):
            Rendition(
                bitrate_kbps=100, width=1, height=1, audio_bitrate_kbps=-1
            )


class TestResolutionBands:
    def test_low_bitrate_small_resolution(self):
        assert resolution_for_bitrate(200) == (416, 234)

    def test_hd_band(self):
        assert resolution_for_bitrate(5000) == (1920, 1080)

    def test_uhd_band(self):
        assert resolution_for_bitrate(20000) == (3840, 2160)

    def test_monotone_in_bitrate(self):
        widths = [resolution_for_bitrate(b)[0] for b in (100, 800, 3000, 9000)]
        assert widths == sorted(widths)

    def test_nonpositive_rejected(self):
        with pytest.raises(LadderError):
            resolution_for_bitrate(0)


class TestLadderConstruction:
    def test_sorted_on_construction(self):
        ladder = BitrateLadder.from_bitrates((2400, 150, 600))
        assert ladder.bitrates_kbps == (150, 600, 2400)

    def test_duplicate_bitrates_rejected(self):
        with pytest.raises(LadderError):
            BitrateLadder.from_bitrates((100, 100, 200))

    def test_empty_rejected(self):
        with pytest.raises(LadderError):
            BitrateLadder([])

    def test_len_and_indexing(self, ladder):
        assert len(ladder) == 5
        assert ladder[0].bitrate_kbps == 150
        assert ladder[4].bitrate_kbps == 2400

    def test_equality_and_hash(self):
        a = BitrateLadder.from_bitrates((100, 200))
        b = BitrateLadder.from_bitrates((200, 100))
        assert a == b
        assert hash(a) == hash(b)
        assert a != BitrateLadder.from_bitrates((100, 300))


class TestLadderQueries:
    def test_min_max_aggregate(self, ladder):
        assert ladder.min_bitrate_kbps == 150
        assert ladder.max_bitrate_kbps == 2400
        assert ladder.aggregate_bitrate_kbps == 150 + 300 + 600 + 1200 + 2400

    def test_nearest_at_most_exact(self, ladder):
        assert ladder.nearest_at_most(600).bitrate_kbps == 600

    def test_nearest_at_most_between_rungs(self, ladder):
        assert ladder.nearest_at_most(1199).bitrate_kbps == 600

    def test_nearest_at_most_below_floor_returns_floor(self, ladder):
        assert ladder.nearest_at_most(10).bitrate_kbps == 150

    def test_nearest_at_most_above_top(self, ladder):
        assert ladder.nearest_at_most(1e9).bitrate_kbps == 2400

    def test_step_ratios(self, ladder):
        assert ladder.step_ratios() == pytest.approx([2.0, 2.0, 2.0, 2.0])


class TestHlsGuidelines:
    def test_conforming_ladder(self, ladder):
        assert ladder.follows_hls_guidelines()

    def test_missing_low_rung(self):
        ladder = BitrateLadder.from_bitrates((800, 1400, 2000))
        assert not ladder.follows_hls_guidelines()

    def test_excessive_step(self):
        ladder = BitrateLadder.from_bitrates((150, 600))  # 4x jump
        assert not ladder.follows_hls_guidelines()
