"""MPEG-DASH media presentation descriptions (.mpd) — ISO 23009-1 subset.

A single XML document carries the whole presentation: an AdaptationSet
of video Representations (one per ladder rung) with a SegmentTemplate,
plus an audio AdaptationSet.  Unlike HLS, DASH is codec-agnostic (§2),
which the writer reflects by accepting whatever codec the ladder's
renditions declare.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List

from repro.constants import Protocol
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Video
from repro.errors import ManifestParseError
from repro.packaging.manifest.base import (
    ManifestInfo,
    ManifestParser,
    ManifestWriter,
    chunk_count,
)

_DASH_NS = "urn:mpeg:dash:schema:mpd:2011"
_CODEC_STRINGS = {
    "h264": "avc1.640028",
    "h265": "hvc1.1.6.L120.90",
    "vp9": "vp09.00.40.08",
}


def _iso_duration(seconds: float) -> str:
    """Render seconds as an ISO 8601 duration (PT#H#M#S)."""
    total = max(seconds, 0.0)
    hours = int(total // 3600)
    minutes = int((total % 3600) // 60)
    secs = total - hours * 3600 - minutes * 60
    return f"PT{hours}H{minutes}M{secs:.3f}S"


def _parse_iso_duration(text: str) -> float:
    """Parse the PT#H#M#S subset of ISO 8601 durations."""
    if not text.startswith("PT"):
        raise ManifestParseError(f"bad ISO duration {text!r}")
    value = 0.0
    number = ""
    for char in text[2:]:
        if char.isdigit() or char == ".":
            number += char
        elif char == "H":
            value += float(number) * 3600
            number = ""
        elif char == "M":
            value += float(number) * 60
            number = ""
        elif char == "S":
            value += float(number)
            number = ""
        else:
            raise ManifestParseError(f"bad ISO duration {text!r}")
    return value


class DASHWriter(ManifestWriter):
    """Renders a static (VoD) MPD with a SegmentTemplate per set."""

    protocol = Protocol.DASH
    extension = ".mpd"
    segment_extension = ".m4s"

    def render(
        self, video: Video, ladder: BitrateLadder, base_url: str
    ) -> str:
        ET.register_namespace("", _DASH_NS)
        mpd = ET.Element(
            f"{{{_DASH_NS}}}MPD",
            {
                "type": "static",
                "mediaPresentationDuration": _iso_duration(
                    video.duration_seconds
                ),
                "minBufferTime": _iso_duration(
                    2 * self.chunk_duration_seconds
                ),
                "profiles": "urn:mpeg:dash:profile:isoff-on-demand:2011",
            },
        )
        period = ET.SubElement(
            mpd, f"{{{_DASH_NS}}}Period", {"id": video.video_id}
        )
        base = ET.SubElement(period, f"{{{_DASH_NS}}}BaseURL")
        base.text = f"{base_url.rstrip('/')}/{video.video_id}/"

        video_set = ET.SubElement(
            period,
            f"{{{_DASH_NS}}}AdaptationSet",
            {"contentType": "video", "mimeType": "video/mp4"},
        )
        timescale = 1000
        ET.SubElement(
            video_set,
            f"{{{_DASH_NS}}}SegmentTemplate",
            {
                "timescale": str(timescale),
                "duration": str(
                    int(self.chunk_duration_seconds * timescale)
                ),
                "media": "$RepresentationID$/seg$Number%05d$.m4s",
                "initialization": "$RepresentationID$/init.mp4",
                "startNumber": "0",
            },
        )
        for rendition in ladder:
            ET.SubElement(
                video_set,
                f"{{{_DASH_NS}}}Representation",
                {
                    "id": f"{int(round(rendition.bitrate_kbps))}k",
                    "bandwidth": str(int(rendition.bitrate_kbps * 1000)),
                    "width": str(rendition.width),
                    "height": str(rendition.height),
                    "codecs": _CODEC_STRINGS.get(
                        rendition.codec, rendition.codec
                    ),
                },
            )

        audio_set = ET.SubElement(
            period,
            f"{{{_DASH_NS}}}AdaptationSet",
            {"contentType": "audio", "mimeType": "audio/mp4"},
        )
        audio_kbps = ladder[0].audio_bitrate_kbps or 96.0
        ET.SubElement(
            audio_set,
            f"{{{_DASH_NS}}}Representation",
            {
                "id": "audio",
                "bandwidth": str(int(audio_kbps * 1000)),
                "codecs": "mp4a.40.2",
            },
        )
        header = '<?xml version="1.0" encoding="UTF-8"?>\n'
        return header + ET.tostring(mpd, encoding="unicode") + "\n"


class DASHParser(ManifestParser):
    """Parses the MPD subset the writer produces."""

    protocol = Protocol.DASH

    def parse(self, text: str) -> ManifestInfo:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ManifestParseError(f"MPD is not well-formed XML: {exc}")
        if not root.tag.endswith("MPD"):
            raise ManifestParseError(f"root element is {root.tag!r}, not MPD")
        ns = {"d": _DASH_NS}
        period = root.find("d:Period", ns)
        if period is None:
            raise ManifestParseError("MPD has no Period")
        video_id = period.get("id", "unknown")

        bitrates: List[float] = []
        audio_bitrates: List[float] = []
        chunk_duration: float = 0.0
        chunk_urls: List[str] = []
        base_el = period.find("d:BaseURL", ns)
        base = base_el.text if base_el is not None and base_el.text else ""

        presentation = root.get("mediaPresentationDuration")
        duration_seconds = (
            _parse_iso_duration(presentation) if presentation else 0.0
        )

        for adaptation in period.findall("d:AdaptationSet", ns):
            content_type = adaptation.get("contentType", "video")
            template = adaptation.find("d:SegmentTemplate", ns)
            representations = adaptation.findall("d:Representation", ns)
            for representation in representations:
                bandwidth = representation.get("bandwidth")
                if bandwidth is None:
                    raise ManifestParseError(
                        "Representation missing bandwidth"
                    )
                kbps = float(bandwidth) / 1000.0
                if content_type == "audio":
                    audio_bitrates.append(kbps)
                else:
                    bitrates.append(kbps)
            if content_type == "video" and template is not None:
                timescale = float(template.get("timescale", "1"))
                duration_ticks = float(template.get("duration", "0"))
                if timescale <= 0 or duration_ticks <= 0:
                    raise ManifestParseError("bad SegmentTemplate timing")
                chunk_duration = duration_ticks / timescale
                media = template.get("media", "")
                if duration_seconds > 0 and media:
                    n = chunk_count(duration_seconds, chunk_duration)
                    for representation in representations:
                        rep_id = representation.get("id", "rep")
                        for i in range(n):
                            url = media.replace(
                                "$RepresentationID$", rep_id
                            ).replace("$Number%05d$", f"{i:05d}")
                            chunk_urls.append(base + url)
        if not bitrates:
            raise ManifestParseError("MPD advertises no video renditions")
        if chunk_duration <= 0:
            raise ManifestParseError("MPD has no video SegmentTemplate")
        return ManifestInfo(
            protocol=Protocol.DASH,
            video_id=video_id,
            bitrates_kbps=tuple(sorted(bitrates)),
            audio_bitrates_kbps=tuple(audio_bitrates),
            chunk_duration_seconds=chunk_duration,
            chunk_urls=tuple(chunk_urls),
        )
