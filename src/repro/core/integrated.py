"""Integrated-syndication what-if analysis (extension of §6).

The paper sketches two integrated models — API integration (the
syndicator uses the owner's manifest and CDN) and app integration (the
owner's app is embedded) — and notes two open problems: quantifying the
QoE equalization, and the *accounting* problem of splitting CDN usage
between the owner's and syndicators' clients once they share one
delivery path.  This module answers both against the simulated case
study:

* :func:`integrated_qoe_projection` replays every syndicator client
  session over the owner's ladder on identical network draws — what
  Figs 15/16 would look like after integration.
* :func:`accounting_report` attributes the shared CDN's served
  view-hours and bytes back to the owner and each syndicator (the
  accounting mechanism API integration needs).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.delivery.network import default_isp_profiles
from repro.errors import AnalysisError
from repro.playback.abr import AbrAlgorithm
# simulate_session stays bound here: traced runs wrap it at this name.
from repro.playback.session import (  # noqa: F401
    CASE_STUDY_ABR,
    CASE_STUDY_SESSION,
    simulate_session,
    simulate_sessions,
)
from repro.stats.cdf import ECDF
from repro.synthesis.calibration import QOE_COMBOS
from repro.synthesis.syndication import CaseStudy
from repro.telemetry.dataset import Dataset


@dataclass(frozen=True)
class QoeProjection:
    """Syndicator QoE, before and after API/app integration."""

    isp: str
    cdn_name: str
    label: str
    before_median_kbps: float
    after_median_kbps: float
    before_p90_rebuffer: float
    after_p90_rebuffer: float

    @property
    def bitrate_gain(self) -> float:
        if self.before_median_kbps <= 0:
            raise AnalysisError("degenerate pre-integration bitrate")
        return self.after_median_kbps / self.before_median_kbps

    @property
    def rebuffer_reduction(self) -> float:
        if self.before_p90_rebuffer <= 0:
            return 0.0
        return 1.0 - self.after_p90_rebuffer / self.before_p90_rebuffer


def integrated_qoe_projection(
    case_study: CaseStudy,
    label: str,
    isp: str,
    cdn_name: str,
    sessions: int = 200,
    seed: int = 7,
    abr: Optional[AbrAlgorithm] = None,
) -> QoeProjection:
    """Project one syndicator's QoE under integrated syndication.

    Each simulated client session is run twice on the *same* network
    draw: once over the syndicator's own ladder (today), once over the
    owner's ladder (after integration).  With app/API integration the
    syndicator cannot choose different bitrates than the owner (§6), so
    the post-integration ladder is exactly the owner's.
    """
    if sessions < 10:
        raise AnalysisError("need at least 10 sessions")
    path = default_isp_profiles()[isp].path_to(cdn_name)
    abr = abr or CASE_STUDY_ABR
    rng = np.random.default_rng(seed)
    own_ladder = case_study.ladder(label)
    owner_ladder = case_study.ladder("O")
    means = [path.sample_session_mean(rng) for _ in range(sessions)]
    # Rows alternate before/after, so each pair shares one session mean
    # and sits next to its partner in the draw order.
    results = simulate_sessions(
        [own_ladder, owner_ladder] * sessions,
        path,
        CASE_STUDY_SESSION,
        rng,
        abr=abr,
        session_means=[mean for mean in means for _ in range(2)],
    )
    before_rates = [r.average_bitrate_kbps for r in results[0::2]]
    after_rates = [r.average_bitrate_kbps for r in results[1::2]]
    before_rebuffer = [r.rebuffer_ratio for r in results[0::2]]
    after_rebuffer = [r.rebuffer_ratio for r in results[1::2]]
    return QoeProjection(
        isp=isp,
        cdn_name=cdn_name,
        label=label,
        before_median_kbps=ECDF(before_rates).median(),
        after_median_kbps=ECDF(after_rates).median(),
        before_p90_rebuffer=ECDF(before_rebuffer).quantile(0.9),
        after_p90_rebuffer=ECDF(after_rebuffer).quantile(0.9),
    )


def project_all_syndicators(
    case_study: CaseStudy, sessions: int = 120
) -> Dict[str, QoeProjection]:
    """QoE projections for every syndicator in the case study, on the
    first QoE combination's path (ISP X to CDN A).

    Each label's projection consumes its own ``default_rng(7)`` from
    scratch, as the before/after pairing requires one sequential stream
    per label.
    """
    isp, cdn_name = QOE_COMBOS[0]
    return {
        label: integrated_qoe_projection(
            case_study, label, isp, cdn_name, sessions=sessions
        )
        for label in case_study.syndicator_labels
    }


# ---------------------------------------------------------------------------
# Accounting: split shared-CDN usage per client population.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccountingEntry:
    """CDN usage attributable to one publisher's clients."""

    publisher_id: str
    views: float
    view_hours: float
    delivered_gigabytes: float

    @property
    def mean_bitrate_kbps(self) -> float:
        if self.view_hours <= 0:
            return 0.0
        return self.delivered_gigabytes * 8e6 / (self.view_hours * 3600.0)


def accounting_report(
    dataset: Dataset,
    cdn_name: str,
    video_id: Optional[str] = None,
) -> Dict[str, AccountingEntry]:
    """Attribute one CDN's delivered traffic per publisher (§6's open
    accounting problem for API integration), over the views of one
    video when ``video_id`` is given.

    Delivered bytes are estimated from each view's average bitrate and
    duration; multi-CDN views split their traffic evenly across their
    CDNs (the same §3 rule the share analyses use).
    """
    views: Dict[str, float] = defaultdict(float)
    view_hours: Dict[str, float] = defaultdict(float)
    gigabytes: Dict[str, float] = defaultdict(float)
    if video_id is not None:
        dataset = dataset.where("video_id", video_id)
    for record in dataset:
        if cdn_name not in record.cdn_names:
            continue
        fraction = 1.0 / len(record.cdn_names)
        hours = record.view_hours * fraction
        views[record.publisher_id] += record.views * fraction
        view_hours[record.publisher_id] += hours
        # kbps * hours * 3600 s/h / 8 bits-per-byte / 1e6 kB-per-GB
        gigabytes[record.publisher_id] += (
            record.avg_bitrate_kbps * hours * 3600.0 / 8.0 / 1e6
        )
    if not views:
        raise AnalysisError(f"no traffic observed on CDN {cdn_name!r}")
    return {
        publisher_id: AccountingEntry(
            publisher_id=publisher_id,
            views=views[publisher_id],
            view_hours=view_hours[publisher_id],
            delivered_gigabytes=gigabytes[publisher_id],
        )
        for publisher_id in views
    }


def owner_share_of_cdn(
    dataset: Dataset, cdn_name: str, owner_id: str
) -> float:
    """Fraction of a CDN's delivered bytes attributable to the owner."""
    report = accounting_report(dataset, cdn_name)
    total = sum(entry.delivered_gigabytes for entry in report.values())
    if total <= 0:
        raise AnalysisError("no delivered bytes on this CDN")
    owner = report.get(owner_id)
    return (owner.delivered_gigabytes / total) if owner else 0.0
