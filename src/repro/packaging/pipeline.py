"""The end-to-end packaging pipeline of Fig 1.

Encode -> chunk -> (optional DRM) -> encapsulate per protocol ->
manifests, ready to push to CDN origins.  A publisher supporting ``k``
protocols runs this once per protocol per title — exactly the
duplication the §5 protocol-titles complexity metric counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import Protocol
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Video
from repro.errors import PackagingError
from repro.packaging.chunker import Chunk, Chunker
from repro.packaging.drm import DrmScheme
from repro.packaging.encoder import EncodeJob, EncodeResult, Encoder
from repro.packaging.manifest import manifest_writer_for


@dataclass
class PackagedAsset:
    """Everything produced by packaging one title for one protocol."""

    video: Video
    protocol: Protocol
    ladder: BitrateLadder
    manifest_url: str
    manifest_text: str
    chunks: Tuple[Chunk, ...]
    drm_scheme: DrmScheme = DrmScheme.NONE
    media_playlists: Tuple[str, ...] = ()

    @property
    def total_bytes(self) -> float:
        """Origin storage footprint of this packaging (all renditions)."""
        return sum(chunk.size_bytes for chunk in self.chunks)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)


class PackagingPipeline:
    """Packages titles for a set of streaming protocols.

    Parameters
    ----------
    protocols:
        Protocols to encapsulate for; must be HTTP adaptive.
    chunk_duration_seconds:
        Playback duration per chunk (publishers commonly use 2-10 s).
    drm_scheme:
        Optional DRM applied across all protocols.
    encoder:
        Cost model for the transcode stage; a default farm when omitted.
    """

    def __init__(
        self,
        protocols: Sequence[Protocol],
        chunk_duration_seconds: float = 6.0,
        drm_scheme: DrmScheme = DrmScheme.NONE,
        encoder: Optional[Encoder] = None,
    ) -> None:
        if not protocols:
            raise PackagingError("pipeline needs at least one protocol")
        for protocol in protocols:
            if not protocol.is_http_adaptive:
                raise PackagingError(
                    f"{protocol} is not an HTTP adaptive protocol"
                )
        if len(set(protocols)) != len(protocols):
            raise PackagingError("duplicate protocol in pipeline")
        self.protocols = tuple(protocols)
        self.chunk_duration_seconds = chunk_duration_seconds
        self.drm_scheme = drm_scheme
        self.encoder = encoder or Encoder()
        self.chunker = Chunker(chunk_duration_seconds)

    def package(
        self, video: Video, ladder: BitrateLadder, base_url: str
    ) -> List[PackagedAsset]:
        """Package one title for every configured protocol."""
        encode_result = self.encode(video, ladder)
        assets: List[PackagedAsset] = []
        for protocol in self.protocols:
            assets.append(
                self._encapsulate(video, ladder, base_url, protocol)
            )
        # Sanity: per-protocol chunk bytes must equal the encode output.
        for asset in assets:
            if abs(asset.total_bytes - encode_result.output_bytes) > 1.0:
                raise PackagingError(
                    "chunk accounting diverged from encoder output: "
                    f"{asset.total_bytes} vs {encode_result.output_bytes}"
                )
        return assets

    def encode(self, video: Video, ladder: BitrateLadder) -> EncodeResult:
        """Run (only) the transcode stage; exposed for cost studies."""
        return self.encoder.encode(EncodeJob(video=video, ladder=ladder))

    def packaging_overhead(
        self, video: Video, ladder: BitrateLadder
    ) -> Dict[str, float]:
        """Cost summary for §5-style packaging accounting.

        Returns the storage bytes (protocol count x encoded bytes, since
        every protocol stores its own encapsulation), encode CPU-seconds
        and, for live content, the added packaging latency.
        """
        result = self.encode(video, ladder)
        return {
            "storage_bytes": result.output_bytes * len(self.protocols),
            "cpu_seconds": result.cpu_seconds,
            "live_latency_seconds": self.encoder.live_latency_seconds(
                result.job, self.chunk_duration_seconds
            ),
        }

    def _encapsulate(
        self,
        video: Video,
        ladder: BitrateLadder,
        base_url: str,
        protocol: Protocol,
    ) -> PackagedAsset:
        writer = manifest_writer_for(
            protocol, chunk_duration_seconds=self.chunk_duration_seconds
        )
        chunks: List[Chunk] = []
        for rendition in ladder:
            chunks.extend(self.chunker.chunks(video, rendition))
        media_playlists: Tuple[str, ...] = ()
        if protocol is Protocol.HLS:
            media_playlists = tuple(
                writer.render_media(video, rendition, base_url)
                for rendition in ladder
            )
        return PackagedAsset(
            video=video,
            protocol=protocol,
            ladder=ladder,
            manifest_url=writer.manifest_url(video, base_url),
            manifest_text=writer.render(video, ladder, base_url),
            chunks=tuple(chunks),
            drm_scheme=self.drm_scheme,
            media_playlists=media_playlists,
        )
