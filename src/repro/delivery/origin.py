"""CDN origin-server storage accounting and redundancy elimination.

§6: publishers proactively push content to a CDN origin which serves
cache misses from edges.  When multiple publishers (an owner and its
syndicators) push the *same* video ID at their own ladders, the origin
stores redundant renditions.  The paper quantifies the storage saved if
the CDN (a) removes copies whose bitrates match within a tolerance
factor, or (b) serves everyone from the owner's single copy (integrated
syndication).  This module implements that exact arithmetic.

Every push stores a whole catalogue at a whole ladder, so the origin
keeps one titles × rungs size matrix per push rather than one object
per rendition (DESIGN.md §17).  The per-rendition loop it replaced is
:class:`repro.testkit.reference.ReferenceOriginServer`, which the
``origin-vs-reference`` oracle checks it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue
from repro.errors import DeliveryError
from repro.units import BITS_PER_BYTE, KBPS


@dataclass(frozen=True)
class _Push:
    """One ``push_catalogue``: every title of a catalogue at every rung."""

    publisher_id: str
    #: Video id -> row of ``sizes``, in catalogue order.
    rows: Dict[str, int]
    bitrates: Tuple[float, ...]
    #: Titles × rungs bytes, each ``rendition_bytes(kbps, duration)``.
    sizes: np.ndarray


@dataclass(frozen=True)
class _SharedLadder:
    """The videos that the same sequence of pushes stored.

    They share one merged ladder: the pushes' bitrates in push order,
    then rung order, which is the order the origin stored them in.
    """

    #: Each video's index in first-stored order.
    positions: np.ndarray
    #: Publisher of each merged rung.
    publishers: Tuple[str, ...]
    #: Videos × merged rungs bytes.
    sizes: np.ndarray
    #: Stable sort of the merged rungs by bitrate, and the sorted rates.
    order: np.ndarray
    rising: Tuple[float, ...]

    @classmethod
    def of(
        cls, pushes: Sequence[_Push], video_ids: Sequence[str],
        positions: Sequence[int],
    ) -> "_SharedLadder":
        bitrates = [kbps for push in pushes for kbps in push.bitrates]
        order = sorted(range(len(bitrates)), key=bitrates.__getitem__)
        return cls(
            positions=np.array(positions),
            publishers=tuple(
                push.publisher_id for push in pushes for _ in push.bitrates
            ),
            sizes=np.hstack([
                push.sizes[[push.rows[video_id] for video_id in video_ids]]
                for push in pushes
            ]),
            order=np.array(order),
            rising=tuple(bitrates[j] for j in order),
        )

    def kept_after_dedup(self, tolerance: float) -> np.ndarray:
        """Each video's bytes after greedy near-duplicate grouping.

        Sorted by bitrate, a rendition joins the current group while it
        is within ``tolerance`` of the group representative (the group's
        first, i.e. lowest, bitrate); otherwise it starts a new group.
        The kept copy per group is its largest member, so that playback
        quality is never reduced by dedup.  The groups depend on the
        bitrates alone, so one walk serves every video here.
        """
        starts = [0]
        group_rep = self.rising[0]
        for index in range(1, len(self.rising)):
            kbps = self.rising[index]
            if abs(kbps - group_rep) <= tolerance * group_rep:
                continue
            starts.append(index)
            group_rep = kbps
        maxima = np.maximum.reduceat(
            self.sizes[:, self.order], starts, axis=1
        )
        return np.add.accumulate(maxima, axis=1)[:, -1]


def _running_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, left to right.

    That is what a ``+=`` loop adds.  ``np.sum`` adds pairwise and the
    builtin ``sum`` compensates on Python 3.12, so neither would.
    """
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


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
        self._pushes: List[_Push] = []

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
        rows = {video.video_id: row for row, video in enumerate(catalogue)}
        bitrates = ladder.bitrates_kbps
        self._reject_repush(publisher_id, rows, bitrates)
        if not rows:
            return 0.0
        durations = np.array(
            [video.duration_seconds for video in catalogue], dtype=float
        )
        # ``rendition_bytes`` elementwise, in its operand order.
        sizes = (
            np.array(bitrates, dtype=float) * KBPS / BITS_PER_BYTE
        )[np.newaxis, :] * durations[:, np.newaxis]
        self._pushes.append(_Push(publisher_id, rows, bitrates, sizes))
        return _running_sum(sizes.ravel())

    def _reject_repush(
        self,
        publisher_id: str,
        rows: Dict[str, int],
        bitrates: Tuple[float, ...],
    ) -> None:
        """Raise on the first (video, rung) this publisher already stored.

        Each push stores its whole catalogue × ladder product, so an
        earlier push by the same publisher clashes exactly when both its
        video ids and its bitrates meet this push's.
        """
        earlier = [
            push
            for push in self._pushes
            if push.publisher_id == publisher_id
            and not push.rows.keys().isdisjoint(rows)
            and not set(push.bitrates).isdisjoint(bitrates)
        ]
        for video_id in rows if earlier else ():
            taken = {
                kbps
                for push in earlier
                if video_id in push.rows
                for kbps in push.bitrates
            }
            for kbps in bitrates:
                if kbps in taken:
                    raise DeliveryError(
                        f"{publisher_id} already pushed {video_id} "
                        f"@ {kbps} kbps to {self.cdn_name}"
                    )

    @property
    def publishers(self) -> Set[str]:
        return {push.publisher_id for push in self._pushes}

    def total_bytes(self) -> float:
        """Raw (un-deduplicated) origin footprint."""
        # The builtin sum over every rendition in stored order: on
        # Python 3.12 it compensates, so no other sum has its bits.
        return sum(
            chain.from_iterable(
                push.sizes.ravel().tolist() for push in self._pushes
            )
        )

    def deduplicated_bytes(self, tolerance: float) -> float:
        """Footprint after removing near-duplicate renditions.

        For each video ID, renditions across publishers are greedily
        grouped so that every member of a group is within ``tolerance``
        (fractional) of the group's representative bitrate; one copy per
        group is kept.  ``tolerance=0`` keeps exact duplicates only once.
        """
        if tolerance < 0:
            raise DeliveryError("tolerance must be non-negative")
        n_videos, shared = self._shared_ladders()
        kept = np.empty(n_videos)
        for ladder in shared:
            kept[ladder.positions] = ladder.kept_after_dedup(tolerance)
        return _running_sum(kept)

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
        n_videos, shared = self._shared_ladders()
        kept = np.empty(n_videos)
        for ladder in shared:
            owner = [
                column
                for column, publisher_id in enumerate(ladder.publishers)
                if publisher_id == owner_id
            ]
            if owner:
                # Builtin sum over Python floats, as for total_bytes.
                kept[ladder.positions] = [
                    sum(copies)
                    for copies in ladder.sizes[:, owner].tolist()
                ]
            else:
                kept[ladder.positions] = ladder.kept_after_dedup(0.0)
        return _running_sum(kept)

    def integrated_savings(self, owner_id: str) -> Tuple[float, float]:
        """(bytes saved, percent saved) under integrated syndication."""
        total = self.total_bytes()
        if total <= 0:
            raise DeliveryError("origin is empty")
        kept = self.integrated_bytes(owner_id)
        saved = total - kept
        return saved, 100.0 * saved / total

    def _shared_ladders(self) -> Tuple[int, List[_SharedLadder]]:
        """The stored videos, grouped by the pushes that hold them.

        Returns the video count and one :class:`_SharedLadder` per
        distinct push sequence; videos are numbered in first-stored
        order, the order the per-origin sums run in.
        """
        held: Dict[str, Tuple[int, ...]] = {}
        for index, push in enumerate(self._pushes):
            for video_id in push.rows:
                held[video_id] = held.get(video_id, ()) + (index,)
        by_pushes: Dict[Tuple[int, ...], List[int]] = {}
        for position, indices in enumerate(held.values()):
            by_pushes.setdefault(indices, []).append(position)
        video_ids = list(held)
        return len(video_ids), [
            _SharedLadder.of(
                [self._pushes[index] for index in indices],
                [video_ids[position] for position in positions],
                positions,
            )
            for indices, positions in by_pushes.items()
        ]
