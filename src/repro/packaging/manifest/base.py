"""Shared manifest machinery.

A manifest describes, per §2, "the values of available bitrates for
adaptation, the audio bitrates, the time duration of an individual
chunk and the URLs to fetch video chunks".  Each protocol module
subclasses :class:`ManifestWriter` / :class:`ManifestParser` to render
and round-trip its concrete wire format; :class:`ManifestInfo` is the
protocol-neutral summary the control plane (and our analyses) consume.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.constants import Protocol
from repro.entities.ladder import BitrateLadder, Rendition
from repro.entities.video import Video
from repro.errors import ManifestError


@dataclass(frozen=True)
class ManifestInfo:
    """Protocol-neutral contents of a parsed manifest.

    ``chunk_duration_seconds`` is None when the parsed document is a
    top-level (master) manifest that delegates segment timing to
    per-rendition playlists, as HLS master playlists do.
    """

    protocol: Protocol
    video_id: str
    bitrates_kbps: Tuple[float, ...]
    audio_bitrates_kbps: Tuple[float, ...] = ()
    chunk_duration_seconds: Optional[float] = None
    chunk_urls: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.bitrates_kbps:
            raise ManifestError("manifest must advertise at least one bitrate")
        if (
            self.chunk_duration_seconds is not None
            and self.chunk_duration_seconds <= 0
        ):
            raise ManifestError("chunk duration must be positive")

    @property
    def rendition_count(self) -> int:
        return len(self.bitrates_kbps)


def chunk_count(duration_seconds: float, chunk_seconds: float) -> int:
    """Number of chunks for a video: ceil(duration / chunk duration)."""
    if duration_seconds <= 0 or chunk_seconds <= 0:
        raise ManifestError("durations must be positive")
    return int(math.ceil(duration_seconds / chunk_seconds))


def chunk_url(
    base_url: str, video_id: str, bitrate_kbps: float, index: int, ext: str
) -> str:
    """Deterministic chunk URL layout shared by all writers."""
    return (
        f"{base_url.rstrip('/')}/{video_id}/"
        f"{int(round(bitrate_kbps))}k/seg{index:05d}{ext}"
    )


class ManifestWriter(abc.ABC):
    """Renders a master manifest for one video + ladder."""

    #: Protocol this writer encapsulates for.
    protocol: Protocol
    #: Manifest filename extension including the dot (Table 1).
    extension: str
    #: Chunk/media-segment filename extension.
    segment_extension: str

    def __init__(self, chunk_duration_seconds: float = 6.0) -> None:
        if chunk_duration_seconds <= 0:
            raise ManifestError("chunk duration must be positive")
        self.chunk_duration_seconds = chunk_duration_seconds

    @abc.abstractmethod
    def render(
        self, video: Video, ladder: BitrateLadder, base_url: str
    ) -> str:
        """Render the manifest document as text."""

    def manifest_url(self, video: Video, base_url: str) -> str:
        """URL at which this manifest would be published.

        The path layout matches the sample URLs of Table 1 — the
        manifest extension is the last path component's suffix, which is
        what the protocol detector keys on.
        """
        return (
            f"{base_url.rstrip('/')}/{video.video_id}/"
            f"master{self.extension}"
        )

    def segment_urls(
        self, video: Video, rendition: Rendition, base_url: str
    ) -> List[str]:
        n = chunk_count(video.duration_seconds, self.chunk_duration_seconds)
        return [
            chunk_url(
                base_url,
                video.video_id,
                rendition.bitrate_kbps,
                i,
                self.segment_extension,
            )
            for i in range(n)
        ]


class ManifestParser(abc.ABC):
    """Parses one protocol's manifest text back into a ManifestInfo."""

    protocol: Protocol

    @abc.abstractmethod
    def parse(self, text: str) -> ManifestInfo:
        """Parse manifest text; raise ManifestParseError when invalid."""


def require_prefix(text: str, prefix: str, what: str) -> None:
    """Validate a document magic prefix, raising ManifestParseError."""
    from repro.errors import ManifestParseError

    if not text.lstrip().startswith(prefix):
        raise ManifestParseError(
            f"{what} must start with {prefix!r}; got {text.lstrip()[:40]!r}"
        )
