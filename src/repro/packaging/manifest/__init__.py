"""Manifest writers, parsers, and protocol detection (Table 1).

The Table 1 URL-extension detector lives in
:mod:`repro.packaging.manifest.detect`.
One writer/parser pair per HTTP adaptive-streaming protocol.  Use
:func:`manifest_writer_for` / :func:`parser_for` to obtain them by
:class:`~repro.constants.Protocol`.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.constants import Protocol
from repro.errors import ManifestError
from repro.packaging.manifest.base import ManifestParser, ManifestWriter
from repro.packaging.manifest.dash import DASHParser, DASHWriter
from repro.packaging.manifest.hds import HDSParser, HDSWriter
from repro.packaging.manifest.hls import HLSParser, HLSWriter
from repro.packaging.manifest.mss import MSSParser, MSSWriter

_WRITERS: Dict[Protocol, Type[ManifestWriter]] = {
    Protocol.HLS: HLSWriter,
    Protocol.DASH: DASHWriter,
    Protocol.MSS: MSSWriter,
    Protocol.HDS: HDSWriter,
}

_PARSERS: Dict[Protocol, Type[ManifestParser]] = {
    Protocol.HLS: HLSParser,
    Protocol.DASH: DASHParser,
    Protocol.MSS: MSSParser,
    Protocol.HDS: HDSParser,
}


def manifest_writer_for(
    protocol: Protocol, chunk_duration_seconds: float = 6.0
) -> ManifestWriter:
    """Instantiate the writer for an HTTP adaptive protocol."""
    try:
        writer_cls = _WRITERS[protocol]
    except KeyError:
        raise ManifestError(
            f"{protocol} has no manifest format (HTTP adaptive only)"
        ) from None
    return writer_cls(chunk_duration_seconds=chunk_duration_seconds)


def parser_for(protocol: Protocol) -> ManifestParser:
    """Instantiate the parser for an HTTP adaptive protocol."""
    try:
        parser_cls = _PARSERS[protocol]
    except KeyError:
        raise ManifestError(
            f"{protocol} has no manifest format (HTTP adaptive only)"
        ) from None
    return parser_cls()

