"""Edge-cache syndication study (extension of §6).

§6 quantifies origin-server redundancy and notes that edge redundancy
"is harder to quantify as that depends on content access patterns".
This module supplies the access patterns: it synthesizes Zipf-popular
request streams for a syndicated catalogue and replays them through an
LRU edge under two regimes:

* **independent** syndication — each publisher's clients request that
  publisher's own copies (distinct cache keys for identical content);
* **integrated** syndication — every client requests the owner's copy.

The output is the edge hit ratio and origin egress under each regime —
the cache-level analogue of Fig 18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.delivery.edge import EdgeCache
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Catalogue
from repro.errors import DeliveryError
from repro.units import kbps_to_bytes_per_second


@dataclass(frozen=True)
class EdgeStudyResult:
    """Outcome of one regime's replay."""

    regime: str
    requests: int
    hit_ratio: float
    origin_gigabytes: float
    served_gigabytes: float

    @property
    def origin_offload(self) -> float:
        """Fraction of served bytes the origin did NOT have to send."""
        if self.served_gigabytes <= 0:
            return 0.0
        return 1.0 - self.origin_gigabytes / self.served_gigabytes


class EdgeSyndicationStudy:
    """Replays syndicated-content request streams through one edge."""

    def __init__(
        self,
        catalogue: Catalogue,
        ladders: Mapping[str, BitrateLadder],
        owner_id: str,
        cache_capacity_bytes: float,
    ) -> None:
        if owner_id not in ladders:
            raise DeliveryError("owner must have a ladder")
        if len(ladders) < 2:
            raise DeliveryError("need the owner plus at least one syndicator")
        self.catalogue = catalogue
        self.ladders = dict(ladders)
        self.owner_id = owner_id
        self.cache_capacity_bytes = cache_capacity_bytes
        self._video_ids = catalogue.video_ids
        if not self._video_ids:
            raise DeliveryError("catalogue is empty")

    # ------------------------------------------------------------------
    # Request synthesis
    # ------------------------------------------------------------------

    def sample_requests(
        self, rng: np.random.Generator, n_sessions: int
    ) -> Sequence[Tuple[str, str, float, int]]:
        """(publisher, video, bitrate, chunk index) request tuples.

        Sessions pick a publisher uniformly, a title by Zipf (s = 1.1)
        popularity, a sustainable rung from that publisher's ladder, and
        fetch a contiguous run of 40 chunks — the access pattern a
        syndicated series sees across its distributors' audiences.
        """
        if n_sessions < 1:
            raise DeliveryError("need at least one session")
        publishers = sorted(self.ladders)
        ranks = np.arange(1, len(self._video_ids) + 1, dtype=float)
        weights = ranks**-1.1
        popularity = weights / weights.sum()
        requests = []
        for _ in range(n_sessions):
            publisher = publishers[int(rng.integers(len(publishers)))]
            video_idx = int(rng.choice(len(self._video_ids), p=popularity))
            video_id = self._video_ids[video_idx]
            ladder = self.ladders[publisher]
            throughput = float(rng.lognormal(np.log(4000.0), 0.8))
            rung = ladder.nearest_at_most(0.8 * throughput)
            start = int(rng.integers(0, 200))
            for chunk in range(40):
                requests.append(
                    (publisher, video_id, rung.bitrate_kbps, start + chunk)
                )
        return requests

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(
        self,
        requests: Sequence[Tuple[str, str, float, int]],
        regime: str,
    ) -> EdgeStudyResult:
        """Replay a request stream under one syndication regime."""
        if regime not in ("independent", "integrated"):
            raise DeliveryError(f"unknown regime {regime!r}")
        cache = EdgeCache(capacity_bytes=self.cache_capacity_bytes)
        owner_ladder = self.ladders[self.owner_id]
        for publisher, video_id, bitrate, index in requests:
            if regime == "independent":
                key_publisher, key_bitrate = publisher, bitrate
            else:
                # Integration: all clients fetch the owner's copy at the
                # owner's nearest rung.
                key_publisher = self.owner_id
                key_bitrate = owner_ladder.nearest_at_most(
                    max(bitrate, owner_ladder.min_bitrate_kbps)
                ).bitrate_kbps
            size = kbps_to_bytes_per_second(key_bitrate) * 6.0  # 6 s chunks
            cache.request(
                (key_publisher, video_id, key_bitrate, index), size
            )
        stats = cache.stats
        return EdgeStudyResult(
            regime=regime,
            requests=stats.requests,
            hit_ratio=stats.hit_ratio,
            origin_gigabytes=stats.bytes_from_origin / 1e9,
            served_gigabytes=stats.bytes_served / 1e9,
        )

    def compare(
        self,
        rng: np.random.Generator,
        n_sessions: int = 800,
    ) -> Dict[str, EdgeStudyResult]:
        """Run both regimes over the same request stream."""
        requests = self.sample_requests(rng, n_sessions)
        return {
            regime: self.replay(requests, regime)
            for regime in ("independent", "integrated")
        }
