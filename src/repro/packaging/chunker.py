"""Chunking: splitting each rendition into fixed-duration pieces.

§2: "each encoded bitrate of the video is then broken into chunks (a
chunk is a fixed playback-duration portion of the video) for adaptive
streaming".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.entities.ladder import Rendition
from repro.entities.video import Video
from repro.errors import PackagingError
from repro.units import kbps_to_bytes_per_second


@dataclass(frozen=True)
class Chunk:
    """One chunk of one rendition."""

    video_id: str
    bitrate_kbps: float
    index: int
    start_seconds: float
    duration_seconds: float
    size_bytes: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise PackagingError("chunk index must be non-negative")
        if self.duration_seconds <= 0:
            raise PackagingError("chunk duration must be positive")
        if self.size_bytes < 0:
            raise PackagingError("chunk size must be non-negative")

    @property
    def end_seconds(self) -> float:
        return self.start_seconds + self.duration_seconds


class Chunker:
    """Splits renditions into chunks of a fixed playback duration."""

    def __init__(self, chunk_duration_seconds: float = 6.0) -> None:
        if chunk_duration_seconds <= 0:
            raise PackagingError("chunk duration must be positive")
        self.chunk_duration_seconds = chunk_duration_seconds

    def chunk_count(self, video: Video) -> int:
        return int(
            math.ceil(video.duration_seconds / self.chunk_duration_seconds)
        )

    def chunks(self, video: Video, rendition: Rendition) -> Iterator[Chunk]:
        """Yield the chunk sequence for one rendition of a video.

        The final chunk is truncated to the video's end; chunk sizes
        follow the constant-bitrate approximation (bitrate x duration).
        """
        bytes_per_second = kbps_to_bytes_per_second(rendition.bitrate_kbps)
        n = self.chunk_count(video)
        for index in range(n):
            start = index * self.chunk_duration_seconds
            duration = min(
                self.chunk_duration_seconds,
                video.duration_seconds - start,
            )
            yield Chunk(
                video_id=video.video_id,
                bitrate_kbps=rendition.bitrate_kbps,
                index=index,
                start_seconds=start,
                duration_seconds=duration,
                size_bytes=bytes_per_second * duration,
            )

    def total_bytes(self, video: Video, rendition: Rendition) -> float:
        """Sum of chunk sizes; equals bitrate x full duration."""
        return sum(c.size_bytes for c in self.chunks(video, rendition))
