"""Videos and catalogues.

A video ID identifies one title; a catalogue is a publisher's (or a
syndicated series') set of titles.  §6 computes CDN origin storage for a
"popular video catalogue" by summing bitrate x duration over every
video and rung, so videos carry durations and catalogues support that
aggregation directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from repro.constants import ContentType
from repro.entities.ladder import BitrateLadder
from repro.errors import LadderError
from repro.units import rendition_bytes


@dataclass(frozen=True)
class Video:
    """One title: an ID, a duration, and a content type."""

    video_id: str
    duration_seconds: float
    content_type: ContentType = ContentType.VOD

    def __post_init__(self) -> None:
        if not self.video_id:
            raise ValueError("video_id must be non-empty")
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration_seconds}"
            )

    def storage_bytes(self, ladder: BitrateLadder) -> float:
        """Origin bytes to store this video at every rung of a ladder.

        The §6 model: for each video ID multiply its encoded bitrates by
        its duration in seconds and sum.
        """
        return sum(
            rendition_bytes(r.bitrate_kbps, self.duration_seconds)
            for r in ladder
        )


class Catalogue:
    """A named collection of videos with convenient aggregation."""

    def __init__(self, name: str, videos: Iterable[Video] = ()) -> None:
        if not name:
            raise ValueError("catalogue name must be non-empty")
        self.name = name
        self._videos: Dict[str, Video] = {}
        for video in videos:
            self.add(video)

    def add(self, video: Video) -> None:
        if video.video_id in self._videos:
            raise ValueError(f"duplicate video ID {video.video_id!r}")
        self._videos[video.video_id] = video

    def __len__(self) -> int:
        return len(self._videos)

    def __iter__(self) -> Iterator[Video]:
        return iter(self._videos.values())

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._videos

    @property
    def video_ids(self) -> List[str]:
        return list(self._videos)

    @property
    def total_duration_seconds(self) -> float:
        return sum(v.duration_seconds for v in self._videos.values())

    def storage_bytes(self, ladder: BitrateLadder) -> float:
        """Total origin bytes when every title is encoded at ``ladder``."""
        if len(self._videos) == 0:
            raise LadderError("cannot size an empty catalogue")
        return sum(v.storage_bytes(ladder) for v in self._videos.values())
