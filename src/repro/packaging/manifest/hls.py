"""Apple HTTP Live Streaming manifests (.m3u8) — RFC 8216 subset.

HLS splits metadata across a *master playlist* (one ``EXT-X-STREAM-INF``
entry per rendition) and per-rendition *media playlists* (``EXTINF``
per segment).  The writer renders both; the parser reads the master
playlist, which carries the ladder.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.constants import Protocol
from repro.entities.ladder import BitrateLadder, Rendition
from repro.entities.video import Video
from repro.errors import ManifestParseError
from repro.packaging.manifest.base import (
    ManifestInfo,
    ManifestParser,
    ManifestWriter,
    chunk_count,
    require_prefix,
)

_STREAM_INF_RE = re.compile(r"^#EXT-X-STREAM-INF:(?P<attrs>.+)$")
_ATTR_RE = re.compile(r'([A-Z0-9-]+)=("[^"]*"|[^,]*)')


def _parse_attributes(attr_text: str) -> Dict[str, str]:
    attrs: Dict[str, str] = {}
    for key, value in _ATTR_RE.findall(attr_text):
        attrs[key] = value.strip('"')
    return attrs


class HLSWriter(ManifestWriter):
    """Renders HLS master and media playlists."""

    protocol = Protocol.HLS
    extension = ".m3u8"
    segment_extension = ".ts"

    def render(
        self, video: Video, ladder: BitrateLadder, base_url: str
    ) -> str:
        """Master playlist: one variant entry per ladder rung."""
        lines = ["#EXTM3U", "#EXT-X-VERSION:4"]
        for rendition in ladder:
            bandwidth = int(rendition.total_bitrate_kbps * 1000)
            lines.append(
                "#EXT-X-STREAM-INF:"
                f"BANDWIDTH={bandwidth},"
                f"AVERAGE-BANDWIDTH={int(rendition.bitrate_kbps * 1000)},"
                f"RESOLUTION={rendition.width}x{rendition.height},"
                f'CODECS="avc1.640028,mp4a.40.2"'
            )
            lines.append(self.media_playlist_url(video, rendition, base_url))
        return "\n".join(lines) + "\n"

    def media_playlist_url(
        self, video: Video, rendition: Rendition, base_url: str
    ) -> str:
        return (
            f"{base_url.rstrip('/')}/{video.video_id}/"
            f"{int(round(rendition.bitrate_kbps))}k/index.m3u8"
        )

    def render_media(
        self, video: Video, rendition: Rendition, base_url: str
    ) -> str:
        """Media playlist for one rendition: the per-segment timeline."""
        n = chunk_count(video.duration_seconds, self.chunk_duration_seconds)
        lines = [
            "#EXTM3U",
            "#EXT-X-VERSION:4",
            f"#EXT-X-TARGETDURATION:{int(round(self.chunk_duration_seconds))}",
            "#EXT-X-MEDIA-SEQUENCE:0",
            "#EXT-X-PLAYLIST-TYPE:VOD",
        ]
        remaining = video.duration_seconds
        for url in self.segment_urls(video, rendition, base_url):
            seg = min(self.chunk_duration_seconds, remaining)
            lines.append(f"#EXTINF:{seg:.3f},")
            lines.append(url)
            remaining -= seg
        lines.append("#EXT-X-ENDLIST")
        assert len(lines) == 6 + 2 * n
        return "\n".join(lines) + "\n"


class HLSParser(ManifestParser):
    """Parses HLS master playlists."""

    protocol = Protocol.HLS

    def parse(self, text: str) -> ManifestInfo:
        require_prefix(text, "#EXTM3U", "an HLS playlist")
        return self._parse_master(text)

    def _parse_master(self, text: str) -> ManifestInfo:
        bitrates: List[float] = []
        uris: List[str] = []
        expecting_uri = False
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line:
                continue
            match = _STREAM_INF_RE.match(line)
            if match:
                attrs = _parse_attributes(match.group("attrs"))
                bandwidth = attrs.get("AVERAGE-BANDWIDTH") or attrs.get(
                    "BANDWIDTH"
                )
                if bandwidth is None:
                    raise ManifestParseError(
                        "EXT-X-STREAM-INF missing BANDWIDTH"
                    )
                bitrates.append(float(bandwidth) / 1000.0)
                expecting_uri = True
            elif expecting_uri and not line.startswith("#"):
                uris.append(line)
                expecting_uri = False
        if not bitrates:
            raise ManifestParseError("master playlist advertises no variants")
        if len(uris) != len(bitrates):
            raise ManifestParseError(
                f"{len(bitrates)} variants but {len(uris)} variant URIs"
            )
        return ManifestInfo(
            protocol=Protocol.HLS,
            video_id=_video_id_from_uri(uris[0]),
            bitrates_kbps=tuple(sorted(bitrates)),
        )


def _video_id_from_uri(uri: str) -> str:
    """Recover the video ID from our URL layout; 'unknown' otherwise."""
    parts = [p for p in uri.split("/") if p]
    if len(parts) >= 3:
        return parts[-3]
    return "unknown"
