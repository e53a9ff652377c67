"""Packaging: preparing content for adaptive streaming (§2).

Encoding into a bitrate ladder, chunking, optional DRM, encapsulation
per streaming protocol, and manifest generation.  The manifest
sub-package renders and parses real manifest documents for HLS, DASH,
SmoothStreaming, and HDS, and implements the Table 1 URL-extension
protocol detector that the paper's methodology relies on.
"""
