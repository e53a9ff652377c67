"""Syndication analyses (§6, Figs 14-17).

* Fig 14 — prevalence: for each content owner, the percentage of all
  full syndicators that carry its content, read off the per-view
  owned/syndicated flag exactly as in the paper.
* Fig 17 — bitrate divergence: the ladders the owner and each
  syndicator encode one popular video with, for a fixed device class.
* Figs 15/16 — QoE: average-bitrate and rebuffering CDFs of owner
  versus syndicator clients for that video, restricted to one device,
  connection, geography and (ISP, CDN) combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.stats.cdf import ECDF
from repro.telemetry.columnar import distinct_pair_counts, first_seen, truthy
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord


def observed_syndicators(dataset: Dataset) -> Set[str]:
    """Publishers seen serving someone else's content."""
    publishers = dataset.entries("publisher_id")
    syndicated = truthy(dataset.entries("is_syndicated"), len(dataset))
    return {
        publishers.values[p]
        for p in np.unique(publishers.codes[syndicated]).tolist()
    }


def syndicator_fraction_per_owner(dataset: Dataset) -> Dict[str, float]:
    """Per owner, % of all observed full syndicators carrying it (Fig 14).

    Owners whose content is never syndicated get 0% — the paper's CDF
    starts with ~18% of owners at zero.
    """
    syndicators = observed_syndicators(dataset)
    if not syndicators:
        raise AnalysisError("no syndicated views in dataset")
    publishers = dataset.entries("publisher_id")
    owners = dataset.entries("owner_id")
    syndicated = truthy(dataset.entries("is_syndicated"), len(dataset))
    carried = syndicated[owners.rows]
    carriers = distinct_pair_counts(
        owners.codes[carried], len(owners.values),
        publishers.codes[owners.rows[carried]], len(publishers.values),
    )
    # Owners also include publishers serving only owned content; those
    # without any owner_id references simply never syndicated.
    return {
        owners.values[o]: 100.0 * int(carriers[o]) / len(syndicators)
        for o in first_seen(owners.codes).tolist()
    }


def syndication_cdf(dataset: Dataset) -> ECDF:
    """Fig 14's CDF across owners of % syndicators used."""
    fractions = syndicator_fraction_per_owner(dataset)
    return ECDF(fractions.values())


def prevalence_summary(dataset: Dataset) -> Dict[str, float]:
    """§6 headline numbers: owners with >=1 syndicator; owners reaching
    a third of syndicators."""
    fractions = list(syndicator_fraction_per_owner(dataset).values())
    if not fractions:
        raise AnalysisError("no owners observed")
    n = len(fractions)
    return {
        "pct_owners_with_syndicator": 100.0
        * sum(1 for f in fractions if f > 0) / n,
        "pct_owners_third_of_syndicators": 100.0
        * sum(1 for f in fractions if f >= 100.0 / 3.0) / n,
    }


# ---------------------------------------------------------------------------
# Fig 17: bitrate ladder divergence
# ---------------------------------------------------------------------------


def ladders_for_video(
    dataset: Dataset,
    video_id: str,
    device_model: str = "ipad",
    connection_value: str = "wifi",
) -> Dict[str, Tuple[float, ...]]:
    """publisher_id -> encoded ladder observed for one video (Fig 17).

    Restricted to one device class and connection type for a fair
    comparison, as in the paper.
    """
    ladders: Dict[str, Tuple[float, ...]] = {}
    for record in dataset:
        if record.video_id != video_id:
            continue
        if record.device_model != device_model:
            continue
        if record.connection.value != connection_value:
            continue
        ladders[record.publisher_id] = record.bitrate_ladder_kbps
    if not ladders:
        raise AnalysisError(
            f"no views of {video_id!r} on {device_model}/{connection_value}"
        )
    return ladders


# ---------------------------------------------------------------------------
# Figs 15/16: QoE comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QoeComparison:
    """Owner vs syndicator QoE on one (ISP, CDN) combination."""

    isp: str
    cdn_name: str
    owner_bitrate: ECDF
    syndicator_bitrate: ECDF
    owner_rebuffer: ECDF
    syndicator_rebuffer: ECDF

    def median_bitrate_gain(self) -> float:
        """Owner's median average bitrate over the syndicator's (Fig 15:
        ~2.5x)."""
        denominator = self.syndicator_bitrate.median()
        if denominator <= 0:
            raise AnalysisError("syndicator median bitrate is zero")
        return self.owner_bitrate.median() / denominator

    def p90_rebuffer_reduction(self) -> float:
        """Relative reduction in the 90th-percentile rebuffering ratio
        for owner clients (Fig 16: ~40% lower)."""
        syndicator_p90 = self.syndicator_rebuffer.quantile(0.9)
        if syndicator_p90 <= 0:
            return 0.0
        owner_p90 = self.owner_rebuffer.quantile(0.9)
        return 1.0 - owner_p90 / syndicator_p90


def _qoe_records(
    dataset: Dataset,
    publisher_id: str,
    video_id: str,
    isp: str,
    cdn_name: str,
    device_model: str,
    geo: str,
) -> List[ViewRecord]:
    return [
        r
        for r in dataset
        if r.publisher_id == publisher_id
        and r.video_id == video_id
        and r.isp == isp
        and cdn_name in r.cdn_names
        and r.device_model == device_model
        and r.geo == geo
    ]


def qoe_comparison(
    dataset: Dataset,
    owner_id: str,
    syndicator_id: str,
    video_id: str,
    isp: str,
    cdn_name: str,
    device_model: str = "ipad",
    geo: str = "CA",
) -> QoeComparison:
    """Figs 15/16 for one (ISP, CDN) combination."""
    owner_records = _qoe_records(
        dataset, owner_id, video_id, isp, cdn_name, device_model, geo
    )
    syndicator_records = _qoe_records(
        dataset, syndicator_id, video_id, isp, cdn_name, device_model, geo
    )
    if not owner_records or not syndicator_records:
        raise AnalysisError(
            f"missing owner/syndicator views on ISP {isp}, CDN {cdn_name}"
        )
    return QoeComparison(
        isp=isp,
        cdn_name=cdn_name,
        owner_bitrate=ECDF([r.avg_bitrate_kbps for r in owner_records]),
        syndicator_bitrate=ECDF(
            [r.avg_bitrate_kbps for r in syndicator_records]
        ),
        owner_rebuffer=ECDF([r.rebuffer_ratio for r in owner_records]),
        syndicator_rebuffer=ECDF(
            [r.rebuffer_ratio for r in syndicator_records]
        ),
    )
