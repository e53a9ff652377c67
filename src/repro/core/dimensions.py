"""The three management-plane dimensions, extracted from view records.

§4 characterizes packaging (streaming protocol, inferred from the
manifest extension in the URL), device playback (platform and
within-platform family, inferred from the device model), and content
distribution (CDNs, listed per view).  A :class:`Dimension` maps a
record onto its value(s) in one of those vocabularies; every prevalence
and count analysis is generic over a dimension.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Optional, Tuple

from repro.constants import Platform, Protocol
from repro.entities.device import default_registry
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.telemetry.columnar import ColumnKey
from repro.telemetry.records import ViewRecord

#: (value, fraction) pairs: fraction splits the record's view-hours and
#: views across multiple values (only CDNs are multi-valued).
WeightedValues = Tuple[Tuple[object, float], ...]


class Dimension(abc.ABC):
    """One management-plane dimension of §4."""

    name: str

    #: The dimension as a derived column of the dataset's store, which
    #: the prevalence and count analyses group by.  Its function is
    #: :meth:`values`, or an equivalent one.
    column_key: ColumnKey

    @abc.abstractmethod
    def values(self, record: ViewRecord) -> Tuple[object, ...]:
        """The record's value(s); empty when the record is out of scope."""

    def weighted_values(self, record: ViewRecord) -> WeightedValues:
        """Values with view-hour split fractions (sums to 1 in scope)."""
        values = self.values(record)
        if not values:
            return ()
        fraction = 1.0 / len(values)
        return tuple((value, fraction) for value in values)


class ProtocolDimension(Dimension):
    """Streaming protocol, inferred from the URL (Table 1, §3).

    ``http_only`` restricts to HTTP adaptive protocols, which is how the
    paper runs everything past the opening RTMP numbers (§4.1).
    """

    name = "protocol"

    def __init__(self, http_only: bool = True) -> None:
        self.http_only = http_only
        self.column_key = ColumnKey(
            "protocol:http" if http_only else "protocol:all", self.values
        )

    def values(self, record: ViewRecord) -> Tuple[object, ...]:
        protocol = detect_protocol_or_none(record.url)
        if protocol is None:
            return ()
        if self.http_only and not protocol.is_http_adaptive:
            return ()
        return (protocol,)


class PlatformDimension(Dimension):
    """Playback platform, classified from the device model (§4.2)."""

    name = "platform"

    def __init__(self) -> None:
        self._registry = default_registry()
        self.column_key = ColumnKey(self.name, self.values)

    def values(self, record: ViewRecord) -> Tuple[object, ...]:
        if record.device_model not in self._registry:
            return ()
        return (self._registry.platform_of(record.device_model),)


class FamilyDimension(Dimension):
    """Within-platform device family (Fig 10): browser player
    technology, mobile OS, set-top family, and so on."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.name = f"family:{platform.value}"
        self._registry = default_registry()
        self.column_key = ColumnKey(self.name, self.values)

    def values(self, record: ViewRecord) -> Tuple[object, ...]:
        if record.device_model not in self._registry:
            return ()
        device = self._registry.lookup(record.device_model)
        if device.platform is not self.platform:
            return ()
        return (device.family,)


class CdnDimension(Dimension):
    """CDN(s) that delivered the view (§4.3).

    Multi-CDN views split their view-hours evenly across the CDNs
    listed, so CDN shares still sum to 100%.
    """

    name = "cdn"
    column_key = ColumnKey("cdn", attrgetter("cdn_names"))

    def values(self, record: ViewRecord) -> Tuple[object, ...]:
        return tuple(record.cdn_names)


def record_protocol(record: ViewRecord) -> Optional[Protocol]:
    """Protocol of one record, or None when undetectable."""
    return detect_protocol_or_none(record.url)


#: Named derived column for the detected protocol (RTMP included).
PROTOCOL_COLUMN = ProtocolDimension(http_only=False).column_key
