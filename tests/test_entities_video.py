"""Videos and catalogues (repro.entities.video)."""

import pytest

from repro.constants import ContentType
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue, Video
from repro.errors import LadderError


class TestVideo:
    def test_storage_is_bitrate_sum_times_duration(self, video):
        ladder = BitrateLadder.from_bitrates((800,))
        # 800 kbps = 1e5 B/s over 600 s = 6e7 bytes.
        assert video.storage_bytes(ladder) == pytest.approx(6e7)

    def test_storage_sums_over_renditions(self, video, ladder):
        per_rung = [
            video.storage_bytes(BitrateLadder.from_bitrates((b,)))
            for b in ladder.bitrates_kbps
        ]
        assert video.storage_bytes(ladder) == pytest.approx(sum(per_rung))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Video(video_id="", duration_seconds=10)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            Video(video_id="v", duration_seconds=0)

    def test_default_content_type_is_vod(self, video):
        assert video.content_type is ContentType.VOD


class TestCatalogue:
    def test_len_and_contains(self, catalogue):
        assert len(catalogue) == 2
        assert "vid_test_00001" in catalogue
        assert "vid_missing" not in catalogue

    def test_duplicate_rejected(self, catalogue, video):
        with pytest.raises(ValueError):
            catalogue.add(video)

    def test_total_duration(self, catalogue):
        assert catalogue.total_duration_seconds == 1800.0

    def test_storage_aggregates_videos(self, catalogue, ladder):
        expected = sum(v.storage_bytes(ladder) for v in catalogue)
        assert catalogue.storage_bytes(ladder) == pytest.approx(expected)

    def test_empty_catalogue_storage_rejected(self, ladder):
        with pytest.raises(LadderError):
            Catalogue("empty").storage_bytes(ladder)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Catalogue("")
