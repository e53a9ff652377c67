"""The three management-plane dimensions, extracted from view records.

§4 characterizes packaging (streaming protocol, inferred from the
manifest extension in the URL), device playback (platform and
within-platform family, inferred from the device model), and content
distribution (CDNs, listed per view).  A :class:`Dimension` names the
derived column of the dataset's store that holds a record's value(s)
in one of those vocabularies; every prevalence and count analysis is
generic over a dimension.

Each column classifies one *distinct* source value at a time: a URL is
parsed once however many views carry it, and a device model is looked
up once.  The HTTP-only protocol column derives from the all-protocols
column, so both share one parse.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from repro.constants import Platform, Protocol
from repro.entities.device import default_registry
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.telemetry.columnar import ColumnKey
from repro.telemetry.records import ViewRecord

#: The device universe the platform and family columns classify against.
_DEVICES = default_registry()


def _protocol_of(url: str) -> Tuple[Protocol, ...]:
    protocol = detect_protocol_or_none(url)
    return () if protocol is None else (protocol,)


def _http_adaptive(protocol: Protocol) -> Tuple[Protocol, ...]:
    return (protocol,) if protocol.is_http_adaptive else ()


def _platform_of(model: str) -> Tuple[Platform, ...]:
    if model not in _DEVICES:
        return ()
    return (_DEVICES.platform_of(model),)


def _family_of(platform: Platform, model: str) -> Tuple[str, ...]:
    if model not in _DEVICES:
        return ()
    device = _DEVICES.lookup(model)
    if device.platform is not platform:
        return ()
    return (device.family,)


#: Named derived column for the detected protocol (RTMP included).
PROTOCOL_COLUMN = ColumnKey("protocol:all", "url", _protocol_of)

#: HTTP adaptive protocols only (§4.1), derived from
#: :data:`PROTOCOL_COLUMN` rather than from the URL.
HTTP_PROTOCOL_COLUMN = ColumnKey(
    "protocol:http", PROTOCOL_COLUMN, _http_adaptive
)


class Dimension:
    """One management-plane dimension of §4.

    ``column_key`` is the dimension as a derived column of the
    dataset's store, which the prevalence, count and diversity analyses
    group by.
    """

    name: str
    column_key: ColumnKey


class ProtocolDimension(Dimension):
    """Streaming protocol, inferred from the URL (Table 1, §3).

    ``http_only`` restricts to HTTP adaptive protocols, which is how the
    paper runs everything past the opening RTMP numbers (§4.1).
    """

    name = "protocol"

    def __init__(self, http_only: bool = True) -> None:
        self.http_only = http_only
        self.column_key = (
            HTTP_PROTOCOL_COLUMN if http_only else PROTOCOL_COLUMN
        )


class PlatformDimension(Dimension):
    """Playback platform, classified from the device model (§4.2)."""

    name = "platform"
    column_key = ColumnKey(name, "device_model", _platform_of)


class FamilyDimension(Dimension):
    """Within-platform device family (Fig 10): browser player
    technology, mobile OS, set-top family, and so on."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.name = f"family:{platform.value}"
        self.column_key = ColumnKey(
            self.name, "device_model", partial(_family_of, platform)
        )


class CdnDimension(Dimension):
    """CDN(s) that delivered the view (§4.3).

    Multi-CDN views split their view-hours evenly across the CDNs
    listed, so CDN shares still sum to 100%.
    """

    name = "cdn"
    column_key = ColumnKey(name, "cdn_names", tuple)


def record_protocol(record: ViewRecord) -> Optional[Protocol]:
    """Protocol of one record, or None when undetectable."""
    return detect_protocol_or_none(record.url)
