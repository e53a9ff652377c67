"""Monitoring-library events: the raw feed behind view records.

§3: Conviva ships a monitoring library that publishers integrate with
their players; it reports per-view information to a backend.  We model
the event granularity one level below the view record — session start,
periodic heartbeats, and session end — and the sessionization that
folds an event stream back into one :class:`ViewRecord`.  The synthetic
generator normally emits records directly; this module exists so the
ingestion path (events -> record) is a real, tested code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constants import ConnectionType, ContentType
from repro.errors import DatasetError
from repro.telemetry.records import ViewRecord
from repro.units import seconds_to_hours


@dataclass(frozen=True)
class SessionStart:
    """Emitted when playback begins."""

    session_id: str
    snapshot: date
    publisher_id: str
    url: str
    video_id: str
    device_model: str
    os_name: str
    content_type: ContentType
    bitrate_ladder_kbps: Tuple[float, ...]
    user_agent: Optional[str] = None
    sdk_name: Optional[str] = None
    sdk_version: Optional[str] = None
    is_syndicated: bool = False
    owner_id: Optional[str] = None
    isp: Optional[str] = None
    geo: Optional[str] = None
    connection: ConnectionType = ConnectionType.WIFI


@dataclass(frozen=True)
class Heartbeat:
    """Periodic playback report (Conviva uses ~20 s heartbeats).

    ``seq`` is an optional per-session sequence number assigned by the
    monitoring library; when present it lets the ingestion layer detect
    duplicated heartbeats that are otherwise byte-identical.
    """

    session_id: str
    interval_seconds: float
    playing_seconds: float
    rebuffering_seconds: float
    bitrate_kbps: float
    cdn_name: str
    seq: Optional[int] = None

    def __post_init__(self) -> None:
        check_heartbeat(self)


def check_heartbeat(beat: Heartbeat) -> None:
    """Raise :class:`DatasetError`, naming the session, unless the
    beat's timings are finite, non-negative and fit its interval.

    The range checks are written so that NaN fails them too, as
    :class:`ViewRecord`'s are, and a timing that is not a number (a
    comparison raises ``TypeError``) fails as well.  A beat that
    crossed a transport or a fault injector may have skipped
    construction, so :class:`Sessionizer` checks every beat it is fed
    again.
    """
    interval = beat.interval_seconds
    playing = beat.playing_seconds
    rebuffering = beat.rebuffering_seconds
    bitrate = beat.bitrate_kbps
    try:
        if not 0.0 < interval < math.inf:
            problem = f"interval must be finite and positive: {interval}"
        elif not (
            0.0 <= playing < math.inf and 0.0 <= rebuffering < math.inf
        ):
            problem = (
                "time components must be finite and non-negative: "
                f"playing {playing}, rebuffering {rebuffering}"
            )
        elif not playing + rebuffering <= interval + 1e-6:
            problem = (
                f"components {playing} + {rebuffering} exceed the interval "
                f"{interval}"
            )
        elif not 0.0 <= bitrate < math.inf:
            problem = f"bitrate must be finite and non-negative: {bitrate}"
        else:
            return
    except TypeError:
        problem = (
            f"timings must be numbers: interval {interval!r}, playing "
            f"{playing!r}, rebuffering {rebuffering!r}, bitrate {bitrate!r}"
        )
    raise DatasetError(f"heartbeat for session {beat.session_id!r}: {problem}")


@dataclass(frozen=True)
class SessionEnd:
    """Emitted when playback stops."""

    session_id: str


class Sessionizer:
    """Folds an event stream into view records.

    Events may interleave across sessions; a record is produced when a
    session's end event arrives.  Sessions must start before they beat
    or end, and heartbeats after an end are rejected.

    With ``retain_records=False`` folded records are returned to the
    caller but not accumulated internally, so a long-lived owner (e.g.
    :class:`~repro.telemetry.backend.TelemetryBackend`) that keeps its
    own record store does not hold every record twice.
    """

    def __init__(self, retain_records: bool = True) -> None:
        self._open: Dict[str, SessionStart] = {}
        self._beats: Dict[str, List[Heartbeat]] = {}
        self._records: List[ViewRecord] = []
        self._retain_records = retain_records
        self._folded = 0

    def ingest(self, event: object) -> Optional[ViewRecord]:
        """Process one event; returns a record when a session closes."""
        if isinstance(event, SessionStart):
            if event.session_id in self._open:
                raise DatasetError(
                    f"session {event.session_id!r} started twice"
                )
            self._open[event.session_id] = event
            self._beats[event.session_id] = []
            return None
        if isinstance(event, Heartbeat):
            if event.session_id not in self._open:
                raise DatasetError(
                    f"heartbeat for unknown session {event.session_id!r}"
                )
            check_heartbeat(event)
            self._beats[event.session_id].append(event)
            return None
        if isinstance(event, SessionEnd):
            start = self._open.get(event.session_id)
            if start is None:
                raise DatasetError(
                    f"end for unknown session {event.session_id!r}"
                )
            # Fold BEFORE popping: a fold failure (e.g. no heartbeats)
            # must leave the session recoverable, not destroy it.
            beats = self._beats.get(event.session_id, ())
            record = self._fold(
                start, beats, sum(b.playing_seconds for b in beats)
            )
            del self._open[event.session_id]
            self._beats.pop(event.session_id, None)
            if self._retain_records:
                self._records.append(record)
            self._folded += 1
            return record
        raise DatasetError(f"unknown event type {type(event).__name__}")

    @property
    def records(self) -> Tuple[ViewRecord, ...]:
        return tuple(self._records)

    @property
    def folded_count(self) -> int:
        """Sessions folded so far (counted even without retention)."""
        return self._folded

    @property
    def open_sessions(self) -> int:
        return len(self._open)

    @staticmethod
    def _fold(
        start: SessionStart, beats: Sequence[Heartbeat], playing: float
    ) -> ViewRecord:
        """One record from a session's beats.

        ``playing`` is ``sum(b.playing_seconds for b in beats)``.  The
        lenient callers need it first to vet the session, so each
        caller sums it once and passes it in.
        """
        if not beats:
            raise DatasetError(
                f"session {start.session_id!r} ended without heartbeats"
            )
        rebuffering = sum(b.rebuffering_seconds for b in beats)
        if playing <= 0:
            raise DatasetError(
                f"session {start.session_id!r} reported no playback"
            )
        avg_bitrate = (
            sum(b.bitrate_kbps * b.playing_seconds for b in beats) / playing
        )
        cdns: List[str] = []
        for beat in beats:
            if beat.cdn_name not in cdns:
                cdns.append(beat.cdn_name)
        total = playing + rebuffering
        return ViewRecord(
            snapshot=start.snapshot,
            publisher_id=start.publisher_id,
            url=start.url,
            device_model=start.device_model,
            os_name=start.os_name,
            cdn_names=tuple(cdns),
            bitrate_ladder_kbps=start.bitrate_ladder_kbps,
            view_duration_hours=seconds_to_hours(playing),
            avg_bitrate_kbps=avg_bitrate,
            rebuffer_ratio=rebuffering / total,
            content_type=start.content_type,
            video_id=start.video_id,
            weight=1.0,
            user_agent=start.user_agent,
            sdk_name=start.sdk_name,
            sdk_version=start.sdk_version,
            is_syndicated=start.is_syndicated,
            owner_id=start.owner_id,
            isp=start.isp,
            geo=start.geo,
            connection=start.connection,
        )
