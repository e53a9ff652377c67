"""Publishers and their per-snapshot management-plane profiles.

A publisher's identity (ID, syndication role, live/VoD mix, size class)
is stable; its management plane — which protocols it packages for,
which platforms it builds players for, which CDNs it pushes to, which
SDK versions it maintains — evolves over the 27-month study window.
:class:`PublisherProfile` is the state of one publisher's management
plane during one snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.constants import ContentType, Platform, Protocol, SyndicationRole
from repro.entities.cdn import CdnAssignment
from repro.entities.device import SDK


@dataclass(frozen=True)
class Publisher:
    """Stable identity of a content publisher (anonymized, as in §3)."""

    publisher_id: str
    daily_view_hours: float
    role: SyndicationRole = SyndicationRole.NONE
    serves_live: bool = False
    serves_vod: bool = True
    catalogue_size: int = 1

    def __post_init__(self) -> None:
        if not self.publisher_id:
            raise ValueError("publisher_id must be non-empty")
        if self.daily_view_hours <= 0:
            raise ValueError("daily view-hours must be positive")
        if not (self.serves_live or self.serves_vod):
            raise ValueError("publisher must serve live or VoD content")
        if self.catalogue_size < 1:
            raise ValueError("catalogue must contain at least one title")

    @property
    def content_types(self) -> Tuple[ContentType, ...]:
        types: List[ContentType] = []
        if self.serves_live:
            types.append(ContentType.LIVE)
        if self.serves_vod:
            types.append(ContentType.VOD)
        return tuple(types)


@dataclass
class PublisherProfile:
    """One publisher's management plane during one snapshot.

    The three §4 dimensions (protocols, platforms, CDNs) plus the SDK
    matrix that feeds the §5 unique-SDKs complexity metric.
    """

    publisher: Publisher
    protocols: FrozenSet[Protocol]
    platforms: FrozenSet[Platform]
    cdn_assignments: Tuple[CdnAssignment, ...]
    sdks: FrozenSet[SDK] = frozenset()
    device_models: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("profile must support at least one protocol")
        if not self.platforms:
            raise ValueError("profile must support at least one platform")
        if not self.cdn_assignments:
            raise ValueError("profile must use at least one CDN")
        names = [a.cdn.name for a in self.cdn_assignments]
        if len(names) != len(set(names)):
            raise ValueError("duplicate CDN assignment")
