"""Streaming-protocol inference from view URLs (Table 1, §3).

The paper infers each view's streaming protocol from the manifest file
extension in the (anonymized) URL: ``.m3u8``/``.m3u`` for HLS, ``.mpd``
for DASH, ``.ism``/``.isml`` for SmoothStreaming, ``.f4m`` for HDS.
Two exceptions (§3, footnote 5): RTMP is detected from the URL scheme,
and progressive download from media-file extensions such as ``.mp4``.

The protocol depends only on the scheme and the path's components.
For a plain ``scheme://netloc/path`` URL, one precompiled ``fullmatch``
reads both: printable ASCII only, with none of ``?#;[]\\``, so there
is no query, fragment, ``;params`` or IPv6 bracket for ``urlparse`` to
split off and nothing for it to strip or reject.  Every other URL goes
to :func:`_urlparse_protocol`, the ``urlparse`` classifier the fast
path is checked against (``tests/test_manifest_detect.py`` runs a
Hypothesis differential of the two).  A URL ``urlparse`` rejects, such
as an unbalanced IPv6 bracket, matches no protocol.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urlparse

from repro.constants import (
    MANIFEST_EXTENSIONS,
    PROGRESSIVE_EXTENSIONS,
    Protocol,
)
from repro.errors import ProtocolDetectionError

#: extension (lowercase, with dot) -> protocol, built from Table 1.
_EXTENSION_TABLE = {
    ext: protocol
    for protocol, extensions in MANIFEST_EXTENSIONS.items()
    for ext in extensions
}
_EXTENSION_TABLE.update(
    {ext: Protocol.PROGRESSIVE for ext in PROGRESSIVE_EXTENSIONS}
)


def detect_protocol(url: str) -> Protocol:
    """Classify a view URL into a streaming protocol.

    Raises :class:`ProtocolDetectionError` for URLs that match no known
    scheme or extension; callers that want to tolerate unknowns should
    use :func:`detect_protocol_or_none`.
    """
    protocol = detect_protocol_or_none(url)
    if protocol is None:
        raise ProtocolDetectionError(
            f"cannot infer streaming protocol from URL {url!r}"
        )
    return protocol


def detect_protocol_or_none(url: str) -> Optional[Protocol]:
    """Like :func:`detect_protocol` but returns None for unknown URLs."""
    if not url:
        return None
    match = _PLAIN_URL.fullmatch(url)
    if match is not None:
        return _classify(match.group(1), match.group(2) or "")
    try:
        return _urlparse_protocol(url)
    except ValueError:  # urlparse rejects it, e.g. "http://[::1/x.m3u8"
        return None


#: ``scheme://netloc/path`` in printable ASCII without ``?#;[]\`` (and
#: without ``/`` in the netloc): the URLs whose ``urlparse`` scheme and
#: path are the two groups.
_PLAIN_URL = re.compile(
    r"([A-Za-z][A-Za-z0-9+.-]*)://"  # scheme
    r'[!-"$-.0-:<->@-Z^-~]*'  # netloc
    r'(/[!-"$-:<->@-Z^-~]*)?'  # path
)

_RTMP_SCHEMES = frozenset({"rtmp", "rtmps", "rtmpe", "rtmpt"})


def _urlparse_protocol(url: str) -> Optional[Protocol]:
    """The reference classifier: one full ``urlparse`` per URL.

    Raises ``ValueError`` where ``urlparse`` does.
    """
    parsed = urlparse(url)
    return _classify(parsed.scheme, parsed.path)


def _classify(scheme: str, path: str) -> Optional[Protocol]:
    if scheme.lower() in _RTMP_SCHEMES:
        return Protocol.RTMP
    # MSS publishes `<name>.ism/manifest`; the manifest extension is not
    # the final suffix, so check every path component (Table 1 sample).
    for component in path.lower().split("/"):
        ext = _suffix(component)
        if ext and ext in _EXTENSION_TABLE:
            return _EXTENSION_TABLE[ext]
    return None


def _suffix(component: str) -> Optional[str]:
    dot = component.rfind(".")
    if dot <= 0:
        return None
    return component[dot:]


def extension_for(protocol: Protocol) -> str:
    """Canonical manifest extension for a protocol (inverse of Table 1)."""
    if protocol is Protocol.RTMP:
        raise ProtocolDetectionError("RTMP is scheme-based, not extension-based")
    if protocol is Protocol.PROGRESSIVE:
        return PROGRESSIVE_EXTENSIONS[0]
    return MANIFEST_EXTENSIONS[protocol][0]


def sample_manifest_url(
    protocol: Protocol, video_id: str, cdn_hostname: str
) -> str:
    """Mint a manifest URL in the shape of the paper's Table 1 samples.

    The synthetic telemetry generator uses this so that the analysis
    side must genuinely run extension-based detection rather than being
    handed the protocol.
    """
    if protocol is Protocol.RTMP:
        return f"rtmp://{cdn_hostname}/live/{video_id}"
    if protocol is Protocol.MSS:
        return f"http://{cdn_hostname}/{video_id}.ism/manifest"
    ext = extension_for(protocol)
    return f"http://{cdn_hostname}/{video_id}/master{ext}"
