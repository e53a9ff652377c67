"""The three management-plane dimensions, as derived columns.

§4 characterizes packaging (streaming protocol, inferred from the
manifest extension in the URL), device playback (platform and
within-platform family, inferred from the device model), and content
distribution (CDNs, listed per view).  Each dimension is one derived
column of the dataset's store, a :class:`ColumnKey`, and every §4
analysis takes the column it groups by.

Each column classifies one *distinct* source value at a time: a URL is
parsed once however many views carry it, and a device model is looked
up once.  The HTTP-only protocol column derives from the all-protocols
column, so both share one parse.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Tuple

from repro.constants import Platform, Protocol
from repro.entities.device import default_registry
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.telemetry.columnar import ColumnKey

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


#: Streaming protocol detected from the URL, RTMP included (Table 1, §3).
PROTOCOL_COLUMN = ColumnKey("protocol:all", "url", _protocol_of)

#: HTTP adaptive protocols only, which is how the paper runs everything
#: past the opening RTMP numbers (§4.1); derived from
#: :data:`PROTOCOL_COLUMN` rather than from the URL.
HTTP_PROTOCOL_COLUMN = ColumnKey(
    "protocol:http", PROTOCOL_COLUMN, _http_adaptive
)

#: Playback platform, classified from the device model (§4.2).
PLATFORM_COLUMN = ColumnKey("platform", "device_model", _platform_of)

#: CDN(s) that delivered the view (§4.3).  A multi-CDN view splits its
#: view-hours evenly across the CDNs listed, so CDN shares still sum
#: to 100%.
CDN_COLUMN = ColumnKey("cdn", "cdn_names", tuple)


@lru_cache(maxsize=None)
def family_column(platform: Platform) -> ColumnKey:
    """Within-platform device family (Fig 10): browser player
    technology, mobile OS, set-top family, and so on.  One key per
    platform, so a dataset's memo finds it again."""
    return ColumnKey(
        f"family:{platform.value}",
        "device_model",
        partial(_family_of, platform),
    )
