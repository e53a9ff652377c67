"""Catalogue and bitrate-ladder generation.

Every publisher gets a standard encoding ladder (bigger publishers run
deeper ladders, following the HLS authoring guidance the paper cites)
and a catalogue of titles whose IDs the session sampler draws from with
a Zipf popularity bias.  The §6 case-study catalogue is built to the
calibrated size that yields Fig 18's ~1916 TB of origin storage.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence

import numpy as np

from repro.constants import ContentType
from repro.entities.ladder import BitrateLadder
from repro.entities.publisher import Publisher
from repro.entities.video import Catalogue, Video
from repro.synthesis import calibration as cal
from repro.synthesis.population import size_decade
from repro.units import hours_to_seconds

#: Ladder depth per size decade (rungs); big publishers encode more.
_LADDER_RUNGS_BY_DECADE = (3, 4, 4, 5, 6, 7, 9)

#: Top rung in kbps per size decade.
_LADDER_TOP_BY_DECADE = (1800, 2400, 3200, 4500, 6000, 7500, 8600)


def publisher_ladder(
    rng: np.random.Generator, publisher: Publisher
) -> BitrateLadder:
    """The publisher's standard encoding ladder.

    Rungs are geometric from a sub-192 kbps floor to a size-dependent
    top, with multiplicative jitter — publishers follow the protocol
    guidelines but make independent choices (§6).
    """
    decade = size_decade(publisher.daily_view_hours)
    rungs = _LADDER_RUNGS_BY_DECADE[decade]
    top = _LADDER_TOP_BY_DECADE[decade] * float(
        np.exp(rng.normal(0.0, 0.12))
    )
    floor = 150.0 * float(np.exp(rng.normal(0.0, 0.10)))
    ratios = np.linspace(0.0, 1.0, rungs)
    bitrates = floor * (top / floor) ** ratios
    jitter = np.exp(rng.normal(0.0, 0.05, size=rungs))
    bitrates = np.sort(bitrates * jitter)
    # Enforce strict monotonicity after jitter.
    for i in range(1, rungs):
        if bitrates[i] <= bitrates[i - 1]:
            bitrates[i] = bitrates[i - 1] * 1.05
    return BitrateLadder.from_bitrates([round(b, 1) for b in bitrates])


def video_id_for(publisher_id: str, index: int) -> str:
    """Stable video-ID scheme: owner content keeps its ID when
    syndicated, which is how §6 matches content across publishers."""
    return f"vid_{publisher_id}_{index:05d}"


def zipf_cdf(catalogue_size: int) -> List[float]:
    """Cumulative Zipf (s = 1.1) popularity of a catalogue's titles, by rank.

    A list, so :func:`sample_video_index` can search it with
    :func:`bisect.bisect_left`; the session sampler keeps one per
    catalogue size for the length of a build.
    """
    ranks = np.arange(1, catalogue_size + 1, dtype=float)
    weights = ranks**-1.1
    return np.cumsum(weights / weights.sum()).tolist()


def sample_video_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """Zipf-biased title index: a few titles get most views.

    ``cdf`` is the catalogue's :func:`zipf_cdf`.  One ``rng.random()``
    (the double ``rng.uniform()`` returns) located with ``bisect_left``,
    the search ``np.searchsorted(cdf, u, side="left")`` makes; a
    one-title catalogue draws nothing.  The snapshot sampler makes the
    same search over one vector of doubles per publisher; its
    per-record reference calls this function.
    """
    if len(cdf) <= 1:
        return 0
    return bisect_left(cdf, rng.random())


def build_case_catalogue(rng: np.random.Generator) -> Catalogue:
    """The §6 popular video catalogue used for the storage study.

    Sized (titles x duration) so that the owner's 9-rung copy plus the
    two syndicators' copies total about the paper's 1916 TB per common
    CDN.
    """
    catalogue = Catalogue("case-study")
    for index in range(cal.CASE_CATALOGUE_TITLES):
        hours = cal.CASE_CATALOGUE_MEAN_HOURS * float(
            np.exp(rng.normal(0.0, 0.05))
        )
        catalogue.add(
            Video(
                video_id=f"vid_case_{index:05d}",
                duration_seconds=hours_to_seconds(hours),
                content_type=ContentType.VOD,
            )
        )
    return catalogue


def case_video_id() -> str:
    """The single video ID examined in Figs 15-17."""
    return "vid_case_00000"
