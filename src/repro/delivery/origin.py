"""CDN origin-server storage accounting and redundancy elimination.

§6: publishers proactively push content to a CDN origin which serves
cache misses from edges.  When multiple publishers (an owner and its
syndicators) push the *same* video ID at their own ladders, the origin
stores redundant renditions.  The paper quantifies the storage saved if
the CDN (a) removes copies whose bitrates match within a tolerance
factor, or (b) serves everyone from the owner's single copy (integrated
syndication).  This module implements that exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue
from repro.errors import DeliveryError
from repro.units import rendition_bytes


@dataclass(frozen=True)
class StoredRendition:
    """One rendition of one video pushed by one publisher."""

    publisher_id: str
    video_id: str
    bitrate_kbps: float
    size_bytes: float

    def __post_init__(self) -> None:
        if self.bitrate_kbps <= 0:
            raise DeliveryError("stored bitrate must be positive")
        if self.size_bytes < 0:
            raise DeliveryError("stored size must be non-negative")


class OriginServer:
    """Origin storage for one CDN.

    Publishers push whole catalogues; the origin tracks every stored
    rendition and can compute its raw footprint, its footprint after
    bitrate-tolerance dedup, and its footprint under integrated
    syndication.
    """

    def __init__(self, cdn_name: str) -> None:
        if not cdn_name:
            raise DeliveryError("origin needs a CDN name")
        self.cdn_name = cdn_name
        self._stored: List[StoredRendition] = []

    def push_catalogue(
        self,
        publisher_id: str,
        catalogue: Catalogue,
        ladder: BitrateLadder,
    ) -> float:
        """Store every title of a catalogue at every ladder rung.

        Returns the bytes added.  Pushing the same (publisher, video,
        bitrate) twice is rejected — the management plane would not
        re-upload an existing rendition.
        """
        existing = {
            (s.publisher_id, s.video_id, s.bitrate_kbps)
            for s in self._stored
        }
        added = 0.0
        new_items: List[StoredRendition] = []
        for video in catalogue:
            for rendition in ladder:
                key = (publisher_id, video.video_id, rendition.bitrate_kbps)
                if key in existing:
                    raise DeliveryError(
                        f"{publisher_id} already pushed {video.video_id} "
                        f"@ {rendition.bitrate_kbps} kbps to {self.cdn_name}"
                    )
                size = rendition_bytes(
                    rendition.bitrate_kbps, video.duration_seconds
                )
                new_items.append(
                    StoredRendition(
                        publisher_id=publisher_id,
                        video_id=video.video_id,
                        bitrate_kbps=rendition.bitrate_kbps,
                        size_bytes=size,
                    )
                )
                added += size
        self._stored.extend(new_items)
        return added

    @property
    def stored_renditions(self) -> Tuple[StoredRendition, ...]:
        return tuple(self._stored)

    @property
    def publishers(self) -> Set[str]:
        return {s.publisher_id for s in self._stored}

    def total_bytes(self) -> float:
        """Raw (un-deduplicated) origin footprint."""
        return sum(s.size_bytes for s in self._stored)

    def deduplicated_bytes(self, tolerance: float) -> float:
        """Footprint after removing near-duplicate renditions.

        For each video ID, renditions across publishers are greedily
        grouped so that every member of a group is within ``tolerance``
        (fractional) of the group's representative bitrate; one copy per
        group is kept.  ``tolerance=0`` keeps exact duplicates only once.
        """
        if tolerance < 0:
            raise DeliveryError("tolerance must be non-negative")
        kept = 0.0
        for renditions in self._by_video().values():
            kept += _kept_bytes_after_dedup(renditions, tolerance)
        return kept

    def savings(self, tolerance: float) -> Tuple[float, float]:
        """(bytes saved, percent saved) at a dedup tolerance (Fig 18)."""
        total = self.total_bytes()
        if total <= 0:
            raise DeliveryError("origin is empty")
        deduped = self.deduplicated_bytes(tolerance)
        saved = total - deduped
        return saved, 100.0 * saved / total

    def integrated_bytes(self, owner_id: str) -> float:
        """Footprint under integrated syndication (§6).

        Every video that the owner stores is served to all publishers
        from the owner's copies alone; videos the owner does not store
        keep their current copies.
        """
        kept = 0.0
        for renditions in self._by_video().values():
            owner_copies = [
                s for s in renditions if s.publisher_id == owner_id
            ]
            if owner_copies:
                kept += sum(s.size_bytes for s in owner_copies)
            else:
                kept += _kept_bytes_after_dedup(renditions, 0.0)
        return kept

    def integrated_savings(self, owner_id: str) -> Tuple[float, float]:
        """(bytes saved, percent saved) under integrated syndication."""
        total = self.total_bytes()
        if total <= 0:
            raise DeliveryError("origin is empty")
        kept = self.integrated_bytes(owner_id)
        saved = total - kept
        return saved, 100.0 * saved / total

    def _by_video(self) -> Dict[str, List[StoredRendition]]:
        groups: Dict[str, List[StoredRendition]] = {}
        for stored in self._stored:
            groups.setdefault(stored.video_id, []).append(stored)
        return groups


def _kept_bytes_after_dedup(
    renditions: Sequence[StoredRendition], tolerance: float
) -> float:
    """Greedy near-duplicate grouping for one video's renditions.

    Sorted by bitrate, a rendition joins the current group while it is
    within ``tolerance`` of the group representative (the group's first,
    i.e. lowest, bitrate); otherwise it starts a new group.  The kept
    copy per group is its largest member, so that playback quality is
    never reduced by dedup.
    """
    ordered = sorted(renditions, key=lambda s: s.bitrate_kbps)
    kept = 0.0
    group_rep: Optional[float] = None
    group_max_bytes = 0.0
    for stored in ordered:
        if group_rep is None:
            group_rep = stored.bitrate_kbps
            group_max_bytes = stored.size_bytes
            continue
        gap = abs(stored.bitrate_kbps - group_rep)
        if gap <= tolerance * group_rep:
            group_max_bytes = max(group_max_bytes, stored.size_bytes)
        else:
            kept += group_max_bytes
            group_rep = stored.bitrate_kbps
            group_max_bytes = stored.size_bytes
    if group_rep is not None:
        kept += group_max_bytes
    return kept
