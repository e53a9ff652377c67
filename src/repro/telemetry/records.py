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
from typing import Any, Dict, Mapping, Optional, Tuple

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
                is_syndicated=bool(data.get("is_syndicated", False)),
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
