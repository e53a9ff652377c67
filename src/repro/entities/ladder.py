"""Bitrate ladders: the ordered set of encoded renditions of a video.

§2 of the paper: packaging transcodes the master file into multiple
bitrates, each at a resolution/quality point; §6 (Fig 17) compares the
ladders chosen by a content owner and its syndicators for the same
video.  The HLS authoring guidelines the paper cites recommend at least
one rendition under 192 kbps and successive rungs within a 1.5-2x
multiplicative step; :meth:`BitrateLadder.follows_hls_guidelines` checks
exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import LadderError

#: Common 16:9 resolution for a given video bitrate band (kbps -> (w, h)).
_RESOLUTION_BANDS: Tuple[Tuple[float, Tuple[int, int]], ...] = (
    (250, (416, 234)),
    (500, (640, 360)),
    (900, (768, 432)),
    (1600, (960, 540)),
    (3000, (1280, 720)),
    (6000, (1920, 1080)),
    (12000, (2560, 1440)),
    (float("inf"), (3840, 2160)),
)


def resolution_for_bitrate(bitrate_kbps: float) -> Tuple[int, int]:
    """Representative resolution for a video bitrate (16:9 ladder)."""
    if not math.isfinite(bitrate_kbps) or bitrate_kbps <= 0:
        raise LadderError(
            f"bitrate must be positive and finite, got {bitrate_kbps}"
        )
    for upper, resolution in _RESOLUTION_BANDS:
        if bitrate_kbps <= upper:
            return resolution
    raise AssertionError("unreachable: final band is unbounded")


@dataclass(frozen=True)
class Rendition:
    """One encoded variant of a video: a rung on the bitrate ladder."""

    bitrate_kbps: float
    width: int
    height: int
    codec: str = "h264"
    audio_bitrate_kbps: float = 96.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.bitrate_kbps) or self.bitrate_kbps <= 0:
            raise LadderError(
                "rendition bitrate must be positive and finite, "
                f"got {self.bitrate_kbps}"
            )
        if self.width <= 0 or self.height <= 0:
            raise LadderError("rendition resolution must be positive")
        if self.audio_bitrate_kbps < 0:
            raise LadderError("audio bitrate must be non-negative")

    @property
    def total_bitrate_kbps(self) -> float:
        """Video + audio bitrate, the bandwidth a manifest advertises."""
        return self.bitrate_kbps + self.audio_bitrate_kbps

    @property
    def resolution(self) -> Tuple[int, int]:
        return (self.width, self.height)


class BitrateLadder:
    """An ordered, duplicate-free sequence of renditions.

    Invariants: strictly increasing bitrates, at least one rung.
    """

    def __init__(self, renditions: Iterable[Rendition]) -> None:
        rungs = sorted(renditions, key=lambda r: r.bitrate_kbps)
        if not rungs:
            raise LadderError("a ladder needs at least one rendition")
        for lower, upper in zip(rungs, rungs[1:]):
            if upper.bitrate_kbps <= lower.bitrate_kbps:
                raise LadderError(
                    "ladder bitrates must be strictly increasing; "
                    f"got {lower.bitrate_kbps} then {upper.bitrate_kbps}"
                )
        self._rungs: Tuple[Rendition, ...] = tuple(rungs)

    @classmethod
    def from_bitrates(
        cls,
        bitrates_kbps: Sequence[float],
        codec: str = "h264",
    ) -> "BitrateLadder":
        """Build a ladder from bare bitrates, inferring resolutions."""
        renditions = [
            Rendition(
                bitrate_kbps=float(b),
                width=resolution_for_bitrate(float(b))[0],
                height=resolution_for_bitrate(float(b))[1],
                codec=codec,
            )
            for b in bitrates_kbps
        ]
        return cls(renditions)

    def __len__(self) -> int:
        return len(self._rungs)

    def __iter__(self) -> Iterator[Rendition]:
        return iter(self._rungs)

    def __getitem__(self, idx: int) -> Rendition:
        return self._rungs[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitrateLadder):
            return NotImplemented
        return self._rungs == other._rungs

    def __hash__(self) -> int:
        return hash(self._rungs)

    def __repr__(self) -> str:
        rates = ", ".join(f"{r.bitrate_kbps:.0f}" for r in self._rungs)
        return f"BitrateLadder([{rates}] kbps)"

    @property
    def bitrates_kbps(self) -> Tuple[float, ...]:
        return tuple(r.bitrate_kbps for r in self._rungs)

    @property
    def min_bitrate_kbps(self) -> float:
        return self._rungs[0].bitrate_kbps

    @property
    def max_bitrate_kbps(self) -> float:
        return self._rungs[-1].bitrate_kbps

    @property
    def aggregate_bitrate_kbps(self) -> float:
        """Sum of all rung bitrates — proportional to storage cost (§6)."""
        return sum(r.bitrate_kbps for r in self._rungs)

    def nearest_at_most(self, throughput_kbps: float) -> Rendition:
        """Highest rung sustainable at the given throughput.

        Falls back to the lowest rung when even it exceeds throughput —
        a client must pick something (this drives rebuffering in the
        playback simulator).
        """
        best = self._rungs[0]
        for rung in self._rungs:
            if rung.bitrate_kbps <= throughput_kbps:
                best = rung
            else:
                break
        return best

    def step_ratios(self) -> List[float]:
        """Multiplicative step between successive rungs."""
        return [
            upper.bitrate_kbps / lower.bitrate_kbps
            for lower, upper in zip(self._rungs, self._rungs[1:])
        ]

    def follows_hls_guidelines(self) -> bool:
        """Check the HLS authoring recommendations the paper cites (§6).

        At least one rendition at or under 192 kbps and every successive
        step within 2x of the previous rung.
        """
        if self.min_bitrate_kbps > 192.0:
            return False
        return all(ratio <= 2.0 + 1e-9 for ratio in self.step_ratios())
