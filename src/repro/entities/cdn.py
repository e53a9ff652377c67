"""Content delivery networks.

§4.3: the dataset saw 36 CDNs, with 5 serving over 93% of view-hours;
one of the top three uses anycast.  Publishers may restrict a CDN to
live or to VoD traffic, which :class:`CdnAssignment` captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.constants import ContentType


@dataclass(frozen=True)
class CDN:
    """A content delivery network, anonymized like the paper's A-E."""

    name: str
    uses_anycast: bool = False
    hostname_suffix: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("CDN name must be non-empty")

    @property
    def edge_hostname(self) -> str:
        """Representative edge hostname used when minting chunk URLs."""
        suffix = self.hostname_suffix or f"cdn-{self.name.lower()}.example.net"
        return suffix


@dataclass(frozen=True)
class CdnAssignment:
    """A publisher's use of one CDN, with optional content-type scoping.

    ``content_types`` is the set of content types the publisher routes to
    this CDN; §4.3 finds 30% of multi-CDN live+VoD publishers keep at
    least one CDN VoD-only and 19% keep at least one live-only.
    """

    cdn: CDN
    content_types: FrozenSet[ContentType] = field(
        default_factory=lambda: frozenset(ContentType)
    )

    def __post_init__(self) -> None:
        if not self.content_types:
            raise ValueError("a CDN assignment must carry some content type")

    @property
    def vod_only(self) -> bool:
        return self.content_types == frozenset({ContentType.VOD})

    @property
    def live_only(self) -> bool:
        return self.content_types == frozenset({ContentType.LIVE})

    def serves(self, content_type: ContentType) -> bool:
        return content_type in self.content_types
