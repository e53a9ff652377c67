"""Packaging: preparing content for adaptive streaming (§2).

Encoding into a bitrate ladder, chunking, optional DRM, encapsulation
per streaming protocol, and manifest generation.  The manifest
sub-package renders and parses real manifest documents for HLS, DASH,
SmoothStreaming, and HDS, and implements the Table 1 URL-extension
protocol detector that the paper's methodology relies on.
"""

from repro.packaging.encoder import Encoder, EncodeJob, EncodeResult
from repro.packaging.chunker import Chunker, Chunk
from repro.packaging.drm import DrmScheme, DrmWrapper
from repro.packaging.pipeline import PackagingPipeline, PackagedAsset
from repro.packaging.manifest import (
    detect_protocol,
    manifest_writer_for,
    parser_for,
)

__all__ = [
    "Encoder",
    "EncodeJob",
    "EncodeResult",
    "Chunker",
    "Chunk",
    "DrmScheme",
    "DrmWrapper",
    "PackagingPipeline",
    "PackagedAsset",
    "detect_protocol",
    "manifest_writer_for",
    "parser_for",
]
