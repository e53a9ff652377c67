"""The per-view record schema (§3).

Each view in the Conviva dataset carries: an anonymized publisher ID; a
URL with an anonymized video ID but the real manifest extension; device
model and OS; HTTP user-agent (browser views) or SDK name and version
(app views); the CDN(s) used; the available bitrate ladder; viewing
time; and delivery performance (average bitrate, rebuffering).

:class:`ViewRecord` mirrors that schema.  Records are *weighted*: a
record with ``weight=w`` stands for ``w`` views of identical character,
which keeps a 27-month dataset analyzable in memory without changing
any aggregate (the weight-invariance property is tested).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import date
from typing import Any, Dict, Mapping, NoReturn, Optional, Tuple

from repro.constants import ConnectionType, ContentType
from repro.errors import DatasetError


@dataclass(frozen=True)
class ViewRecord:
    """One (weighted) view, as reported by the monitoring library."""

    snapshot: date
    publisher_id: str
    url: str
    device_model: str
    os_name: str
    cdn_names: Tuple[str, ...]
    bitrate_ladder_kbps: Tuple[float, ...]
    view_duration_hours: float
    avg_bitrate_kbps: float
    rebuffer_ratio: float
    content_type: ContentType
    video_id: str
    weight: float = 1.0
    user_agent: Optional[str] = None
    sdk_name: Optional[str] = None
    sdk_version: Optional[str] = None
    is_syndicated: bool = False
    owner_id: Optional[str] = None
    isp: Optional[str] = None
    geo: Optional[str] = None
    connection: ConnectionType = ConnectionType.WIFI

    def __post_init__(self) -> None:
        # The range checks are written so that NaN fails them too: a
        # single non-finite measure would poison every total.
        if not self.publisher_id:
            raise DatasetError("record missing publisher_id")
        if not self.url:
            raise DatasetError("record missing url")
        if not self.cdn_names:
            raise DatasetError("record missing CDN names")
        if not 0.0 <= self.view_duration_hours < math.inf:
            raise DatasetError(
                "view duration must be finite and non-negative: "
                f"{self.view_duration_hours}"
            )
        if not 0.0 < self.weight < math.inf:
            raise DatasetError(
                f"record weight must be finite and positive: {self.weight}"
            )
        if not 0.0 <= self.rebuffer_ratio <= 1.0:
            raise DatasetError(
                f"rebuffer ratio out of range: {self.rebuffer_ratio}"
            )
        if not 0.0 <= self.avg_bitrate_kbps < math.inf:
            raise DatasetError(
                "average bitrate must be finite and non-negative: "
                f"{self.avg_bitrate_kbps}"
            )
        if not all(map(math.isfinite, self.bitrate_ladder_kbps)):
            raise DatasetError(
                f"non-finite ladder rung: {self.bitrate_ladder_kbps}"
            )

    @property
    def view_hours(self) -> float:
        """Total view-hours this weighted record contributes."""
        return self.weight * self.view_duration_hours

    @property
    def views(self) -> float:
        """Total views this weighted record contributes."""
        return self.weight

    @property
    def is_app_view(self) -> bool:
        """App views carry an SDK; browser views carry a user-agent (§3)."""
        return self.sdk_name is not None

    def to_json_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON-compatible types."""
        data = asdict(self)
        data["snapshot"] = self.snapshot.isoformat()
        data["content_type"] = self.content_type.value
        data["connection"] = self.connection.value
        data["cdn_names"] = list(self.cdn_names)
        data["bitrate_ladder_kbps"] = list(self.bitrate_ladder_kbps)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ViewRecord":
        """A record from one decoded JSON object.

        This is the file boundary, so every field's JSON type is checked
        here: a string field holding a number, a CDN list given as one
        string, or a boolean weight raises :class:`DatasetError` instead
        of loading and failing later inside an analysis.
        """
        _check_json_types(data)
        try:
            return cls(
                snapshot=date.fromisoformat(data["snapshot"]),
                publisher_id=data["publisher_id"],
                url=data["url"],
                device_model=data["device_model"],
                os_name=data["os_name"],
                cdn_names=tuple(data["cdn_names"]),
                bitrate_ladder_kbps=tuple(
                    float(b) for b in data["bitrate_ladder_kbps"]
                ),
                view_duration_hours=float(data["view_duration_hours"]),
                avg_bitrate_kbps=float(data["avg_bitrate_kbps"]),
                rebuffer_ratio=float(data["rebuffer_ratio"]),
                content_type=ContentType(data["content_type"]),
                video_id=data["video_id"],
                weight=float(data.get("weight", 1.0)),
                user_agent=data.get("user_agent"),
                sdk_name=data.get("sdk_name"),
                sdk_version=data.get("sdk_version"),
                is_syndicated=data.get("is_syndicated", False),
                owner_id=data.get("owner_id"),
                isp=data.get("isp"),
                geo=data.get("geo"),
                connection=ConnectionType(data.get("connection", "wifi")),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DatasetError(f"malformed view record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ViewRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"record is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DatasetError(
                f"record is not a JSON object: {type(data).__name__}"
            )
        return cls.from_json_dict(data)


#: Marks a required field that is absent.
_ABSENT = object()

_STR = frozenset({str})
_STR_OR_NULL = frozenset({str, type(None)})
#: ``type`` is compared exactly, and JSON ``true`` decodes as ``bool``,
#: so a boolean is not a number here.
_NUMBER = frozenset({int, float})

#: Every scalar field that is not an enum: its name, the value it takes
#: when absent (``_ABSENT`` when it is required), the JSON types it may
#: hold, and how an error says so.
_SCALAR_FIELDS = (
    ("snapshot", _ABSENT, _STR, "a string"),
    ("publisher_id", _ABSENT, _STR, "a string"),
    ("url", _ABSENT, _STR, "a string"),
    ("device_model", _ABSENT, _STR, "a string"),
    ("os_name", _ABSENT, _STR, "a string"),
    ("video_id", _ABSENT, _STR, "a string"),
    ("view_duration_hours", _ABSENT, _NUMBER, "a number"),
    ("avg_bitrate_kbps", _ABSENT, _NUMBER, "a number"),
    ("rebuffer_ratio", _ABSENT, _NUMBER, "a number"),
    ("weight", 1.0, _NUMBER, "a number"),
    ("is_syndicated", False, frozenset({bool}), "a boolean"),
    ("user_agent", None, _STR_OR_NULL, "a string or null"),
    ("sdk_name", None, _STR_OR_NULL, "a string or null"),
    ("sdk_version", None, _STR_OR_NULL, "a string or null"),
    ("owner_id", None, _STR_OR_NULL, "a string or null"),
    ("isp", None, _STR_OR_NULL, "a string or null"),
    ("geo", None, _STR_OR_NULL, "a string or null"),
)
_NAMES, _DEFAULTS, _ALLOWED, _EXPECTED = zip(*_SCALAR_FIELDS)

#: Array fields and the JSON types of their items.
_ARRAY_FIELDS = (
    ("cdn_names", _STR, "an array of strings"),
    ("bitrate_ladder_kbps", _NUMBER, "an array of numbers"),
)


def _check_json_types(data: Mapping[str, Any]) -> None:
    """Raise :class:`DatasetError` naming the first field of a decoded
    record that is missing or holds the wrong JSON type.

    A well-typed record is checked by ``map`` calls that loop in C;
    only a record that fails is searched field by field.
    """
    values = tuple(map(data.get, _NAMES, _DEFAULTS))
    if not all(map(frozenset.__contains__, _ALLOWED, map(type, values))):
        for name, value, allowed, expected in zip(
            _NAMES, values, _ALLOWED, _EXPECTED
        ):
            if type(value) not in allowed:
                _type_error(name, value, expected)
    for name, allowed, expected in _ARRAY_FIELDS:
        items = data.get(name, _ABSENT)
        if type(items) is not list:
            _type_error(name, items, expected)
        if not allowed.issuperset(map(type, items)):
            bad = next(item for item in items if type(item) not in allowed)
            _type_error(name, bad, expected)


def _type_error(name: str, value: Any, expected: str) -> NoReturn:
    if value is _ABSENT:
        raise DatasetError(f"missing field {name!r}")
    raise DatasetError(
        f"field {name!r} must be {expected}, got {type(value).__name__}"
    )
