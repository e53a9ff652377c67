"""Diversity metrics for management planes (extension).

The paper's conclusion calls for "new complexity metrics" beyond the
three of §5.  The §5 metrics count *support* (how many protocols/
platforms/CDNs a publisher touches); the metrics here measure how
*evenly* a publisher's traffic spreads over those choices — a publisher
that supports four protocols but serves 99% of view-hours over one of
them runs a much simpler plane than its support count suggests.

Two standard ecology/economics measures are used:

* **Shannon entropy** ``H = -sum(p_i log p_i)`` of the view-hour
  distribution over a dimension's values, and its exponential
  ``exp(H)`` — the *effective number of choices* (equals the plain
  count when traffic is uniform, approaches 1 when concentrated).
* **Herfindahl-Hirschman concentration** ``HHI = sum(p_i^2)`` with its
  inverse-participation effective count ``1/HHI``.

The combined *management surface index* multiplies the effective
choice counts of the three dimensions — an evenness-aware analogue of
the §5 combinations metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
)
from repro.errors import AnalysisError
from repro.stats.regression import LogLogFit, fit_loglog
from repro.telemetry.columnar import ColumnRef, pair_sums
from repro.telemetry.dataset import Dataset


def shannon_entropy(shares: Mapping[object, float]) -> float:
    """Shannon entropy (nats) of a share distribution.

    ``shares`` need not be normalized; zero/negative entries are
    rejected as they indicate an upstream accounting bug.
    """
    total = sum(shares.values())
    if total <= 0:
        raise AnalysisError("shares must have positive total")
    entropy = 0.0
    for value in shares.values():
        if value < 0:
            raise AnalysisError("shares must be non-negative")
        if value == 0:
            continue
        p = value / total
        entropy -= p * math.log(p)
    return entropy


def effective_choices(shares: Mapping[object, float]) -> float:
    """exp(entropy): the effective number of evenly-used choices."""
    return math.exp(shannon_entropy(shares))


@dataclass(frozen=True)
class DiversityProfile:
    """Evenness-aware diversity of one publisher's management plane."""

    publisher_id: str
    view_hours: float
    protocol_effective: float
    platform_effective: float
    cdn_effective: float
    protocol_count: int
    platform_count: int
    cdn_count: int

    @property
    def surface_index(self) -> float:
        """Product of effective choice counts across the dimensions."""
        return (
            self.protocol_effective
            * self.platform_effective
            * self.cdn_effective
        )

    @property
    def count_surface(self) -> int:
        """The §5-style raw-count analogue, for comparison."""
        return self.protocol_count * self.platform_count * self.cdn_count

    @property
    def evenness_ratio(self) -> float:
        """surface_index / count_surface in (0, 1].

        1 means traffic is spread perfectly evenly over everything the
        publisher supports; small values mean support breadth overstates
        the live complexity.
        """
        return self.surface_index / self.count_surface


def _share_map(
    dataset: Dataset, column: ColumnRef
) -> Dict[str, Dict[object, float]]:
    """View-hours per publisher per value of ``column``.

    A view with k values gives each 1/k of its view-hours.  Each
    publisher's values appear in the order its views first carry them,
    and every sum adds record by record.
    """
    entries = dataset.entries(column)
    publishers = dataset.entries("publisher_id")
    publisher, value, total = pair_sums(
        publishers.codes[entries.rows],
        entries.codes,
        len(entries.values),
        dataset.measure("view_hours")[entries.rows] * entries.shares,
    )
    shares: Dict[str, Dict[object, float]] = {}
    for p, v, hours in zip(
        publisher.tolist(), value.tolist(), total.tolist()
    ):
        shares.setdefault(publishers.values[p], {})[entries.values[v]] = hours
    return shares


def publisher_diversity(dataset: Dataset) -> Dict[str, DiversityProfile]:
    """Diversity profiles for every publisher in a dataset slice."""
    protocol_shares = _share_map(dataset, HTTP_PROTOCOL_COLUMN)
    platform_shares = _share_map(dataset, PLATFORM_COLUMN)
    cdn_shares = _share_map(dataset, CDN_COLUMN)
    vh = dataset.publisher_view_hours()
    profiles: Dict[str, DiversityProfile] = {}
    for publisher_id in vh:
        protocols = protocol_shares.get(publisher_id)
        platforms = platform_shares.get(publisher_id)
        cdns = cdn_shares.get(publisher_id)
        if not protocols or not platforms or not cdns:
            continue  # publisher unclassifiable in some dimension
        profiles[publisher_id] = DiversityProfile(
            publisher_id=publisher_id,
            view_hours=vh[publisher_id],
            protocol_effective=effective_choices(protocols),
            platform_effective=effective_choices(platforms),
            cdn_effective=effective_choices(cdns),
            protocol_count=len(protocols),
            platform_count=len(platforms),
            cdn_count=len(cdns),
        )
    if not profiles:
        raise AnalysisError("no classifiable publishers in dataset")
    return profiles


@dataclass(frozen=True)
class DiversityFits:
    """Log-log fits of the diversity metrics against view-hours."""

    surface_index: LogLogFit
    count_surface: LogLogFit

    @property
    def evenness_gap(self) -> float:
        """Count-based slope minus evenness-aware slope (per decade).

        Positive means raw support counts grow faster with size than
        actually-exercised diversity — i.e. large publishers' extra
        choices are partly long-tail, which tempers the §5 complexity
        story.
        """
        return (
            self.count_surface.per_decade_factor
            - self.surface_index.per_decade_factor
        )


def fit_diversity(
    profiles: Mapping[str, DiversityProfile]
) -> DiversityFits:
    """Fit both surface measures against publisher view-hours."""
    rows = [p for p in profiles.values() if p.view_hours > 0]
    if len(rows) < 3:
        raise AnalysisError("need at least three publishers to fit")
    vh = [p.view_hours for p in rows]
    return DiversityFits(
        surface_index=fit_loglog(vh, [p.surface_index for p in rows]),
        count_surface=fit_loglog(
            vh, [float(p.count_surface) for p in rows]
        ),
    )


def mean_evenness(
    profiles: Mapping[str, DiversityProfile],
    weight_by_view_hours: bool = False,
) -> float:
    """Average evenness ratio across publishers."""
    rows = list(profiles.values())
    if not rows:
        raise AnalysisError("no profiles")
    if not weight_by_view_hours:
        return sum(p.evenness_ratio for p in rows) / len(rows)
    total = sum(p.view_hours for p in rows)
    if total <= 0:
        raise AnalysisError("no view-hours")
    return sum(p.evenness_ratio * p.view_hours for p in rows) / total
