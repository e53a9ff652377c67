"""Transcoding model: master file -> bitrate ladder of renditions.

§2: "the first packaging step transcodes the master video file into
multiple bitrates of encodings such as H.264, H.265 or VP9".  We model
the encoder's outputs (rendition sizes) and its costs (CPU-seconds and
added latency) because §4.1 notes packaging time adds delay to live
distribution and §5's packaging complexity is proportional to the
resources this stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.entities.ladder import BitrateLadder, Rendition
from repro.entities.video import Video
from repro.errors import PackagingError
from repro.units import rendition_bytes

#: Relative CPU cost of encoding one output pixel-second, per codec.
#: H.265 and VP9 trade ~2.5-4x the compute for better compression.
_CODEC_COMPUTE_FACTOR: Dict[str, float] = {
    "h264": 1.0,
    "h265": 3.5,
    "vp9": 2.8,
}

#: Bitrate an x264-class encoder sustains per unit compute, used to
#: translate pixel work into CPU-seconds.  Arbitrary but fixed units:
#: one reference core encodes 1080p30 H.264 in ~1x real time.
_REFERENCE_PIXEL_RATE = 1920 * 1080 * 30.0


@dataclass(frozen=True)
class EncodeJob:
    """A request to encode one video into one ladder, at 30 fps."""

    video: Video
    ladder: BitrateLadder


@dataclass(frozen=True)
class EncodeResult:
    """Outputs and accounting for one encode job."""

    job: EncodeJob
    output_bytes: float
    cpu_seconds: float
    per_rendition_bytes: Tuple[float, ...]


class Encoder:
    """Deterministic cost/size model of a transcoding farm.

    Parameters
    ----------
    cores:
        Parallel encode slots; rendition jobs are spread across them
        when estimating wall-clock latency for live content.
    """

    def __init__(self, cores: int = 8) -> None:
        if cores < 1:
            raise PackagingError("encoder needs at least one core")
        self.cores = cores

    def encode(self, job: EncodeJob) -> EncodeResult:
        """Run the cost model for one job."""
        per_rendition = tuple(
            rendition_bytes(r.bitrate_kbps, job.video.duration_seconds)
            for r in job.ladder
        )
        cpu = sum(
            self._rendition_cpu_seconds(r, job) for r in job.ladder
        )
        return EncodeResult(
            job=job,
            output_bytes=sum(per_rendition),
            cpu_seconds=cpu,
            per_rendition_bytes=per_rendition,
        )

    def live_latency_seconds(
        self, job: EncodeJob, chunk_duration_seconds: float
    ) -> float:
        """Added end-to-end latency for live content (§4.1).

        A live packager must finish encoding a chunk before publishing
        it: latency is one chunk duration plus the per-chunk encode time
        on the available cores.
        """
        if chunk_duration_seconds <= 0:
            raise PackagingError("chunk duration must be positive")
        per_second_cpu = sum(
            self._rendition_cpu_seconds(r, job) for r in job.ladder
        ) / job.video.duration_seconds
        encode_time = chunk_duration_seconds * per_second_cpu / self.cores
        return chunk_duration_seconds + encode_time

    def _rendition_cpu_seconds(
        self, rendition: Rendition, job: EncodeJob
    ) -> float:
        factor = _CODEC_COMPUTE_FACTOR.get(rendition.codec)
        if factor is None:
            raise PackagingError(f"unknown codec {rendition.codec!r}")
        pixel_rate = rendition.width * rendition.height * 30.0
        return (
            factor
            * pixel_rate
            / _REFERENCE_PIXEL_RATE
            * job.video.duration_seconds
        )
