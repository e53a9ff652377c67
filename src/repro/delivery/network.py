"""Client network-path throughput model.

Figs 15/16 compare the QoE of owner versus syndicator clients on fixed
(ISP, CDN) combinations — "ISP X, CDN A" and "ISP Y, CDN B" for
California iPad clients.  The paper's mechanism for the gap is the
publishers' *ladder* choices, not the network, so the network model
holds the (ISP, CDN) path distribution fixed across publishers: a
lognormal session-mean throughput plus within-session variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import DeliveryError


@dataclass(frozen=True)
class NetworkPath:
    """Throughput distribution of one (ISP, CDN) combination.

    ``median_kbps`` and ``sigma`` parameterize a lognormal over the
    session-mean throughput; ``within_session_cv`` is the coefficient of
    variation of per-chunk throughput around the session mean.
    """

    isp: str
    cdn_name: str
    median_kbps: float
    sigma: float = 0.5
    within_session_cv: float = 0.25
    #: Probability per chunk of *entering* a congestion episode
    #: (cross-traffic burst, Wi-Fi fade, edge-server overload) ...
    outage_prob: float = 0.0
    #: ... during which throughput collapses to this fraction of the
    #: session mean.  Episodes last a geometric number of chunks with
    #: mean ``outage_mean_chunks``.  Sustained congestion is what makes
    #: a high ladder *floor* costly: a client that can shed load to a
    #: low rung rides the episode out, one pinned at 800 kbps starves
    #: (the Fig 16 mechanism).
    outage_factor: float = 0.15
    outage_mean_chunks: float = 5.0

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (
                self.median_kbps,
                self.sigma,
                self.within_session_cv,
                self.outage_mean_chunks,
            )
        ):
            raise DeliveryError("network path parameters must be finite")
        if self.median_kbps <= 0:
            raise DeliveryError("median throughput must be positive")
        if self.sigma < 0 or self.within_session_cv < 0:
            raise DeliveryError("dispersion parameters must be non-negative")
        if not 0.0 <= self.outage_prob < 1.0:
            raise DeliveryError("outage probability must be in [0, 1)")
        if not 0.0 < self.outage_factor <= 1.0:
            raise DeliveryError("outage factor must be in (0, 1]")
        if self.outage_mean_chunks < 1.0:
            raise DeliveryError("episodes last at least one chunk")

    def sample_session_mean(self, rng: np.random.Generator) -> float:
        """Draw one client session's mean throughput in kbps."""
        return float(
            np.exp(rng.normal(np.log(self.median_kbps), self.sigma))
        )

    def sample_chunk_throughputs(
        self, session_mean_kbps: float, n_chunks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-chunk throughputs around a session mean (kbps).

        The congestion chain consumes one uniform per chunk, plus one
        more on each chunk that enters an episode.  Uniforms are drawn
        in blocks: ``n_chunks`` up front and, whenever a block runs out
        at chunk ``i``, ``n_chunks - i`` more.  Every chunk still to be
        walked takes at least one draw, so no block over-draws the
        stream: the values and the generator's final state equal those
        of one ``rng.uniform()`` call per draw.
        """
        if not math.isfinite(session_mean_kbps) or session_mean_kbps <= 0:
            raise DeliveryError("session mean must be positive and finite")
        if n_chunks < 1:
            raise DeliveryError("need at least one chunk")
        if self.within_session_cv == 0:
            throughputs = np.full(n_chunks, float(session_mean_kbps))
        else:
            sigma = np.sqrt(np.log(1.0 + self.within_session_cv**2))
            mu = np.log(session_mean_kbps) - sigma**2 / 2.0
            throughputs = np.exp(rng.normal(mu, sigma, size=n_chunks))
        if self.outage_prob > 0:
            enter_prob = self.outage_prob
            exit_prob = 1.0 / self.outage_mean_chunks
            congested = np.zeros(n_chunks, dtype=bool)
            # ``random`` yields the doubles ``uniform()`` would, one each.
            draws = rng.random(n_chunks).tolist()
            used = 0
            in_episode = False
            for i in range(n_chunks):
                if used == len(draws):
                    draws += rng.random(n_chunks - i).tolist()
                draw = draws[used]
                used += 1
                if in_episode:
                    congested[i] = True
                    in_episode = draw >= exit_prob
                elif draw < enter_prob:
                    congested[i] = True
                    if used == len(draws):
                        draws += rng.random(n_chunks - i).tolist()
                    in_episode = draws[used] >= exit_prob
                    used += 1
            throughputs[congested] *= self.outage_factor
        return throughputs


@dataclass(frozen=True)
class IspProfile:
    """An ISP with per-CDN network paths."""

    name: str
    paths: Mapping[str, NetworkPath]

    def path_to(self, cdn_name: str) -> NetworkPath:
        try:
            return self.paths[cdn_name]
        except KeyError:
            raise DeliveryError(
                f"ISP {self.name!r} has no measured path to CDN {cdn_name!r}"
            ) from None


def default_isp_profiles() -> Dict[str, IspProfile]:
    """The two anonymized (ISP, CDN) combinations of Figs 15/16.

    ISP X is a cable ISP with a strong path to CDN A; ISP Y is a
    telco with a somewhat weaker path to CDN B.  Medians are chosen so
    the owner's 8 Mbps top rung is reachable for a healthy fraction of
    sessions while the syndicator's ~2 Mbps cap almost always binds —
    reproducing the paper's ~2.5x median average-bitrate gap — and the
    congestion-episode tail makes the syndicator's 800 kbps ladder
    floor costly, reproducing the Fig 16 rebuffering gap.
    """
    profiles = {}
    for isp_name, cdn_name, median in (
        ("X", "A", 9_500.0),
        ("Y", "B", 8_500.0),
    ):
        path = NetworkPath(
            isp=isp_name,
            cdn_name=cdn_name,
            median_kbps=median,
            sigma=1.2,
            within_session_cv=0.25,
            outage_prob=0.035,
            outage_factor=0.08,
            outage_mean_chunks=8.0,
        )
        profiles[isp_name] = IspProfile(
            name=isp_name, paths={cdn_name: path}
        )
    return profiles
