"""Syndication graph and the §6 case study.

Owners license content to full syndicators (Fig 14's bipartite graph);
a designated popular catalogue with one owner (O) and ten syndicators
(S1-S10) drives the bitrate-divergence (Fig 17), QoE (Figs 15/16) and
storage-redundancy (Fig 18) analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from repro.constants import SyndicationRole
from repro.entities.ladder import BitrateLadder
from repro.entities.publisher import Publisher
from repro.entities.video import Catalogue
from repro.errors import CalibrationError
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import build_case_catalogue


def build_syndication_graph(
    rng: np.random.Generator, publishers: Sequence[Publisher]
) -> Dict[str, FrozenSet[str]]:
    """owner_id -> syndicator_ids licensing that owner's content.

    Calibrated to Fig 14: >80% of owners use at least one syndicator,
    and the top ~20% of owners reach about a third of all syndicators.
    """
    owners = [
        p.publisher_id for p in publishers if p.role is SyndicationRole.OWNER
    ]
    syndicators = [
        p.publisher_id
        for p in publishers
        if p.role is SyndicationRole.FULL_SYNDICATOR
    ]
    if not owners or not syndicators:
        raise CalibrationError("population lacks owners or syndicators")
    graph: Dict[str, FrozenSet[str]] = {}
    a, b = cal.SYNDICATION_BETA
    for owner in owners:
        if rng.uniform() < cal.PCT_OWNERS_WITHOUT_SYNDICATION:
            graph[owner] = frozenset()
            continue
        fraction = float(rng.beta(a, b))
        count = max(int(round(fraction * len(syndicators))), 1)
        count = min(count, len(syndicators))
        picked = rng.choice(len(syndicators), size=count, replace=False)
        graph[owner] = frozenset(syndicators[int(i)] for i in picked)
    return graph


def invert_graph(
    graph: Mapping[str, FrozenSet[str]]
) -> Dict[str, Tuple[str, ...]]:
    """syndicator_id -> owner_ids whose content it carries."""
    inverse: Dict[str, List[str]] = {}
    for owner, syndicators in graph.items():
        for syndicator in syndicators:
            inverse.setdefault(syndicator, []).append(owner)
    return {k: tuple(sorted(v)) for k, v in inverse.items()}


@dataclass(frozen=True)
class CaseStudy:
    """The designated popular catalogue of §6.

    ``labels`` maps the paper's anonymized labels (O, S1..S10) onto the
    publisher IDs playing those roles in this dataset build.
    """

    labels: Mapping[str, str]  # label -> publisher_id
    ladders: Mapping[str, BitrateLadder]  # label -> iPad/WiFi ladder
    catalogue: Catalogue

    def __post_init__(self) -> None:
        if "O" not in self.labels:
            raise CalibrationError("case study needs an owner label O")
        missing = set(self.labels) - set(self.ladders)
        if missing:
            raise CalibrationError(f"labels without ladders: {missing}")

    @property
    def owner_id(self) -> str:
        return self.labels["O"]

    @property
    def syndicator_labels(self) -> Tuple[str, ...]:
        return tuple(sorted(
            (label for label in self.labels if label != "O"),
            key=lambda s: int(s[1:]),
        ))

    def publisher_id(self, label: str) -> str:
        try:
            return self.labels[label]
        except KeyError:
            raise CalibrationError(f"unknown case-study label {label!r}")

    def ladder(self, label: str) -> BitrateLadder:
        return self.ladders[label]


def assign_case_study(
    rng: np.random.Generator,
    publishers: Sequence[Publisher],
    graph: Dict[str, FrozenSet[str]],
) -> CaseStudy:
    """Pick the owner and ten syndicators and wire the graph to match.

    The owner is the largest owner-role publisher; the ten syndicators
    are the largest full-syndicator publishers.  The graph is augmented
    so all ten genuinely carry the owner's content.
    """
    owners = sorted(
        (p for p in publishers if p.role is SyndicationRole.OWNER),
        key=lambda p: p.daily_view_hours,
        reverse=True,
    )
    syndicators = sorted(
        (p for p in publishers if p.role is SyndicationRole.FULL_SYNDICATOR),
        key=lambda p: p.daily_view_hours,
        reverse=True,
    )
    if not owners:
        raise CalibrationError("no owner-role publisher available")
    owner = owners[0]
    if len(syndicators) < 10:
        # Small test populations may draw too few full syndicators;
        # promote the largest unaffiliated publishers so the case study
        # always has its ten (the paper's catalogue has exactly ten).
        fallback = sorted(
            (
                p
                for p in publishers
                if p.role is SyndicationRole.NONE
                or (
                    p.role is SyndicationRole.OWNER
                    and p.publisher_id != owner.publisher_id
                )
            ),
            key=lambda p: p.daily_view_hours,
            reverse=True,
        )
        syndicators = syndicators + fallback[: 10 - len(syndicators)]
    if len(syndicators) < 10:
        raise CalibrationError(
            f"need 10 case-study syndicators, have {len(syndicators)}"
        )
    chosen = syndicators[:10]
    labels = {"O": owner.publisher_id}
    for i, publisher in enumerate(chosen, start=1):
        labels[f"S{i}"] = publisher.publisher_id
    graph[owner.publisher_id] = frozenset(
        set(graph.get(owner.publisher_id, frozenset()))
        | {p.publisher_id for p in chosen}
    )
    ladders = {
        label: BitrateLadder.from_bitrates(rates)
        for label, rates in cal.CASE_STUDY_LADDERS.items()
    }
    return CaseStudy(
        labels=labels,
        ladders=ladders,
        catalogue=build_case_catalogue(rng),
    )
