"""Fault-tolerant telemetry ingestion (the production event path).

The strict :class:`~repro.telemetry.events.Sessionizer` raises on the
first malformed event, which is the right contract for a library but a
fatal one for a backend ingesting heartbeats from millions of
heterogeneous player SDKs: there, events arrive malformed, duplicated,
out of order, or truncated, and one corrupt heartbeat must never poison
a whole batch.  :class:`IngestPipeline` wraps the same fold logic
with a configurable :class:`ErrorPolicy`:

* ``strict`` — delegate to the plain :class:`Sessionizer`; the first bad
  event raises :class:`~repro.errors.DatasetError` exactly as before.
* ``quarantine`` — never raise; every rejected event lands in a
  dead-letter queue with a typed :class:`RejectReason`.
* ``repair`` — like quarantine, but additionally fix what is fixable
  (clamp negative timings, rescale over-full heartbeats, force-fold
  stale sessions at the end) and count each fix.

On top of the policy it layers duplicate-event dedup (sequence-numbered
heartbeats, identical starts, ends for already-closed sessions), a
bounded reorder buffer for events that arrive before their
``SessionStart``, and a stale-session reaper driven by a logical clock
(events ingested) so idle sessions cannot leak memory forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import DatasetError, IngestError
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart, Sessionizer
from repro.telemetry.records import ViewRecord


class ErrorPolicy(str, Enum):
    """How the ingestion pipeline reacts to bad events."""

    STRICT = "strict"
    QUARANTINE = "quarantine"
    REPAIR = "repair"


class RejectReason(str, Enum):
    """Typed dead-letter taxonomy."""

    UNKNOWN_SESSION = "unknown-session"
    DUPLICATE_START = "duplicate-start"
    NEGATIVE_TIMING = "negative-timing"
    ORPHAN_HEARTBEAT = "orphan-heartbeat"
    END_WITHOUT_HEARTBEATS = "end-without-heartbeats"
    NO_PLAYBACK = "no-playback"
    MALFORMED_EVENT = "malformed-event"
    UNKNOWN_EVENT_TYPE = "unknown-event-type"
    REORDER_OVERFLOW = "reorder-overflow"
    STALE_SESSION = "stale-session"


@dataclass(frozen=True)
class DeadLetter:
    """One rejected event with the reason it was quarantined.

    ``sequence`` is the event's arrival index in the stream, or ``-1``
    for session-level rejections (e.g. a stale session reaped long after
    its start event was accepted).
    """

    event: object
    reason: RejectReason
    detail: str
    sequence: int = -1


@dataclass
class IngestReport:
    """Counts and outputs of one ingestion run.

    The counts are plain fields that the pipeline increments; every
    return of :meth:`IngestPipeline.ingest_many` and
    :meth:`IngestPipeline.finalize` adds what changed to the
    ``ingest.*`` obs instruments, so while obs is on a metrics snapshot
    equals the printed report.

    Invariant (verified by the fuzz suite): every input event is
    accounted for exactly once —
    ``accepted + deduped + event-level dead letters == total_events``.
    Session-level dead letters (``sequence == -1``) and ``reaped`` /
    ``repaired`` describe sessions and fixes, not extra events.
    """

    policy: ErrorPolicy
    total_events: int = 0
    accepted: int = 0
    repaired: int = 0
    deduped: int = 0
    reaped: int = 0
    #: Dead letters per reject reason, in first-seen order.
    rejects: Dict[RejectReason, int] = field(default_factory=dict)
    records: List[ViewRecord] = field(default_factory=list)
    dead_letters: List[DeadLetter] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        return sum(self.rejects.values())

    def reason_counts(self) -> Dict[str, int]:
        return {reason.value: count for reason, count in self.rejects.items()}

    @property
    def event_quarantined(self) -> int:
        """Dead letters that consumed an input event (``sequence >= 0``)."""
        return sum(1 for letter in self.dead_letters if letter.sequence >= 0)

    def summary(self) -> str:
        reasons = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.reason_counts().items())
        )
        return (
            f"policy={self.policy.value} events={self.total_events} "
            f"accepted={self.accepted} records={len(self.records)} "
            f"repaired={self.repaired} quarantined={self.quarantined} "
            f"deduped={self.deduped} reaped={self.reaped}"
            + (f" [{reasons}]" if reasons else "")
        )


class IngestPipeline:
    """Policy-driven, fault-tolerant wrapper around session folding.

    ``reorder_buffer`` bounds how many events may be parked waiting for
    their ``SessionStart``; ``max_idle_events`` (a logical-clock gap,
    i.e. number of subsequently ingested events) drives the
    stale-session reaper, ``None`` disables it.
    """

    def __init__(
        self,
        policy: ErrorPolicy | str = ErrorPolicy.QUARANTINE,
        *,
        reorder_buffer: int = 256,
        max_idle_events: Optional[int] = None,
    ) -> None:
        self.policy = ErrorPolicy(policy)
        if reorder_buffer < 0:
            raise IngestError("reorder_buffer must be >= 0")
        if max_idle_events is not None and max_idle_events < 1:
            raise IngestError("max_idle_events must be >= 1 (or None)")
        self.reorder_buffer = reorder_buffer
        self.max_idle_events = max_idle_events
        self._strict = Sessionizer()
        self._open: Dict[str, SessionStart] = {}
        self._beats: Dict[str, List[Heartbeat]] = {}
        self._seen_seq: Dict[str, Set[int]] = {}
        self._last_seen: Dict[str, int] = {}
        self._closed: Set[str] = set()
        # Events that arrived before their SessionStart, keyed by
        # session, each with its original arrival sequence.
        self._parked: Dict[str, List[Tuple[int, object]]] = {}
        self._parked_total = 0
        self._clock = 0
        self.report = IngestReport(policy=self.policy)
        # (counter, reason) -> the count obs has been given so far.
        self._published: Dict[Tuple[str, str], int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def ingest(self, event: object) -> Optional[ViewRecord]:
        """Process one event; may emit a folded record."""
        records = self.ingest_many((event,))
        return records[0] if records else None

    def ingest_many(self, events: Iterable[object]) -> List[ViewRecord]:
        """Process events in order; returns the records their ends fold.

        The report's counts are exact at every return, also when a
        strict abort raises: ``total_events`` advances by the logical
        clock's step over the call, and the counts are published once.
        """
        if self._finalized:
            # Raise on the first event, not on an empty batch.
            for _ in events:
                raise IngestError("pipeline already finalized")
            return []
        report = self.report
        start = self._clock
        out: List[ViewRecord] = []
        try:
            if self.policy is ErrorPolicy.STRICT:
                for event in events:
                    self._clock += 1
                    record = self._strict.ingest(event)
                    report.accepted += 1
                    if record is not None:
                        report.records.append(record)
                        out.append(record)
            else:
                reap = self.max_idle_events is not None
                for event in events:
                    self._clock += 1
                    record = self._ingest_lenient(event)
                    if reap:
                        self._reap_stale()
                    if record is not None:
                        out.append(record)
        finally:
            if self._clock != start:
                report.total_events = self._clock
                self._publish()
        return out

    def finalize(self) -> IngestReport:
        """Flush parked/open state and return the final report."""
        if self._finalized:
            return self.report
        self._finalized = True
        if self.policy is ErrorPolicy.STRICT:
            return self.report
        for sid in sorted(self._parked):
            for seq_no, event in self._parked[sid]:
                kind = (
                    RejectReason.ORPHAN_HEARTBEAT
                    if isinstance(event, Heartbeat)
                    else RejectReason.UNKNOWN_SESSION
                )
                self._quarantine(
                    event, kind,
                    f"session {sid!r} never started", sequence=seq_no,
                )
        self._parked.clear()
        self._parked_total = 0
        for sid in sorted(self._open):
            self._reap_session(sid, "open at finalize")
        self._publish()
        return self.report

    def run(self, events: Iterable[object]) -> IngestReport:
        """Ingest a whole stream and finalize — the batch entry point.

        The ``ingest.batch`` span carries the report's counts however
        the call ends, a strict abort included.
        """
        report = self.report
        with obs.span("ingest.batch", policy=self.policy.value) as sp:
            try:
                self.ingest_many(events)
                self.finalize()
            finally:
                sp.set(
                    events=report.total_events,
                    accepted=report.accepted,
                    quarantined=report.quarantined,
                    records=len(report.records),
                )
        return report

    @property
    def open_sessions(self) -> int:
        if self.policy is ErrorPolicy.STRICT:
            return self._strict.open_sessions
        return len(self._open)

    # ------------------------------------------------------------------
    # Lenient path (quarantine / repair)
    # ------------------------------------------------------------------

    def _ingest_lenient(self, event: object) -> Optional[ViewRecord]:
        sequence = self._clock - 1
        if isinstance(event, Heartbeat):
            return self._on_beat(event, sequence)
        if isinstance(event, SessionStart):
            return self._on_start(event, sequence)
        if isinstance(event, SessionEnd):
            return self._on_end(event, sequence)
        self._quarantine(
            event, RejectReason.UNKNOWN_EVENT_TYPE,
            f"unknown event type {type(event).__name__}",
            sequence=sequence,
        )
        return None

    def _on_start(self, event: SessionStart, sequence: int) -> None:
        sid = event.session_id
        if sid in self._open:
            if self._open[sid] == event:
                self.report.deduped += 1
            else:
                self._quarantine(
                    event, RejectReason.DUPLICATE_START,
                    f"session {sid!r} started twice with conflicting payloads",
                    sequence=sequence,
                )
            return None
        if sid in self._closed:
            self.report.deduped += 1
            return None
        self._accept(sid)
        self._open[sid] = event
        self._beats[sid] = []
        self._seen_seq[sid] = set()
        self._replay_parked(sid)
        return None

    def _on_beat(
        self, event: Heartbeat, sequence: int, may_park: bool = True
    ) -> Optional[ViewRecord]:
        sid = event.session_id
        if sid not in self._open:
            if sid in self._closed:
                self._quarantine(
                    event, RejectReason.ORPHAN_HEARTBEAT,
                    f"heartbeat for already-closed session {sid!r}",
                    sequence=sequence,
                )
            else:
                assert may_park, "replayed beat for a never-opened session"
                self._park(event, sequence=sequence)
            return None
        if event.seq is not None and event.seq in self._seen_seq[sid]:
            self.report.deduped += 1
            return None
        checked = self._check_beat(event, sequence=sequence)
        if checked is None:
            return None
        if event.seq is not None:
            self._seen_seq[sid].add(event.seq)
        self._accept(sid)
        self._beats[sid].append(checked)
        return None

    def _on_end(
        self, event: SessionEnd, sequence: int, may_park: bool = True
    ) -> Optional[ViewRecord]:
        sid = event.session_id
        if sid not in self._open:
            if sid in self._closed:
                self.report.deduped += 1
            elif may_park and sid in self._parked:
                # Start still missing: park the end so a late start can
                # replay the whole session in order.
                self._park(event, sequence=sequence)
            else:
                self._quarantine(
                    event, RejectReason.UNKNOWN_SESSION,
                    f"end for unknown session {sid!r}",
                    sequence=sequence,
                )
            return None
        record = self._try_fold(sid, end=event, sequence=sequence)
        if record is not None:
            # The fold closed the session: count the end, track nothing.
            self.report.accepted += 1
            self.report.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _accept(self, sid: Optional[str]) -> None:
        """Count an accepted event of an open session.

        Only the reaper reads ``_last_seen``, so it is kept only when
        the reaper runs, and in last-seen order: a session seen again
        moves to the end, and the reaper reads the stalest first.
        """
        self.report.accepted += 1
        if sid is not None and self.max_idle_events is not None:
            self._last_seen.pop(sid, None)
            self._last_seen[sid] = self._clock

    def _quarantine(
        self, event: object, reason: RejectReason, detail: str,
        sequence: int = -1,
    ) -> None:
        rejects = self.report.rejects
        rejects[reason] = rejects.get(reason, 0) + 1
        self.report.dead_letters.append(
            DeadLetter(event=event, reason=reason, detail=detail,
                       sequence=sequence)
        )

    def _publish(self) -> None:
        """Add what the report counted since the last publish to obs.

        The counts go to the ``ingest.*`` instruments of
        :mod:`repro.obs.instruments` under their names and ``reason``
        labels, and the gauges are set, so while obs is on the registry
        equals the report.  With obs off nothing is added; the next
        publish under obs carries the difference.
        """
        if not obs.enabled():
            return
        report = self.report
        counts = {
            ("ingest.events", ""): report.total_events,
            ("ingest.accepted", ""): report.accepted,
            ("ingest.repaired", ""): report.repaired,
            ("ingest.deduped", ""): report.deduped,
            ("ingest.reaped", ""): report.reaped,
            ("ingest.records", ""): len(report.records),
        }
        for reason, count in report.rejects.items():
            counts["ingest.quarantined", reason.value] = count
        for (name, reason), count in counts.items():
            step = count - self._published.get((name, reason), 0)
            if step:
                labels = {"reason": reason} if reason else {}
                obs.counter(name, **labels).inc(step)
        self._published = counts
        obs.gauge("ingest.open_sessions").set(self.open_sessions)
        if self.policy is not ErrorPolicy.STRICT:
            obs.gauge("ingest.parked_events").set(self._parked_total)

    def _park(self, event: object, sequence: int) -> None:
        """Buffer an early event until its SessionStart arrives."""
        if self.reorder_buffer == 0:
            reason = (
                RejectReason.ORPHAN_HEARTBEAT
                if isinstance(event, Heartbeat)
                else RejectReason.UNKNOWN_SESSION
            )
            self._quarantine(
                event, reason, "event precedes its session start "
                "(reorder buffer disabled)", sequence=sequence,
            )
            return
        if self._parked_total >= self.reorder_buffer:
            self._quarantine(
                event, RejectReason.REORDER_OVERFLOW,
                f"reorder buffer full ({self.reorder_buffer} events)",
                sequence=sequence,
            )
            return
        sid = getattr(event, "session_id", "")
        self._parked.setdefault(sid, []).append((sequence, event))
        self._parked_total += 1

    def _replay_parked(self, sid: str) -> None:
        """Re-ingest events that arrived before this session's start.

        A parked ``SessionEnd`` may close the session mid-replay; the
        handlers then treat the remaining parked events as events for a
        closed session (orphan heartbeat / duplicate end).
        """
        parked = self._parked.pop(sid, [])
        self._parked_total -= len(parked)
        for seq_no, event in parked:
            if isinstance(event, Heartbeat):
                self._on_beat(event, seq_no, may_park=False)
            elif isinstance(event, SessionEnd):
                self._on_end(event, seq_no, may_park=False)

    def _check_beat(
        self, event: Heartbeat, sequence: Optional[int] = None
    ) -> Optional[Heartbeat]:
        """Validate (and under ``repair``, fix) one heartbeat.

        Heartbeats normally validate at construction, but events that
        crossed a real transport — or a fault injector — may bypass
        that, so the pipeline re-checks every field it folds on.

        A heartbeat of four finite in-range floats whose components fit
        its interval is accepted at once; everything else takes
        :meth:`_check_beat_fully`, the reference the fast accept is
        tested against.
        """
        playing = event.playing_seconds
        rebuffering = event.rebuffering_seconds
        interval = event.interval_seconds
        bitrate = event.bitrate_kbps
        if (
            type(playing) is float
            and type(rebuffering) is float
            and type(interval) is float
            and type(bitrate) is float
            and 0.0 <= playing
            and 0.0 <= rebuffering
            and 0.0 < interval < math.inf
            and 0.0 <= bitrate < math.inf
            # Two non-negative components summing to at most a finite
            # interval are finite too.
            and playing + rebuffering <= interval + 1e-6
        ):
            return event
        return self._check_beat_fully(event, sequence)

    def _check_beat_fully(
        self, event: Heartbeat, sequence: Optional[int] = None
    ) -> Optional[Heartbeat]:
        """Every check :meth:`_check_beat` makes, on any field types."""
        seq_no = self._clock - 1 if sequence is None else sequence
        problems: List[str] = []
        fixed: Dict[str, float] = {}
        playing = event.playing_seconds
        rebuffering = event.rebuffering_seconds
        interval = event.interval_seconds
        bitrate = event.bitrate_kbps
        if not all(
            isinstance(v, (int, float)) and math.isfinite(v)
            for v in (playing, rebuffering, interval, bitrate)
        ):
            self._quarantine(
                event, RejectReason.MALFORMED_EVENT,
                "non-numeric or non-finite heartbeat timing",
                sequence=seq_no,
            )
            return None
        if playing < 0 or rebuffering < 0:
            problems.append(RejectReason.NEGATIVE_TIMING.value)
            fixed["playing_seconds"] = max(playing, 0.0)
            fixed["rebuffering_seconds"] = max(rebuffering, 0.0)
        if bitrate < 0:
            problems.append("negative bitrate")
            fixed["bitrate_kbps"] = 0.0
        if interval <= 0:
            problems.append("non-positive interval")
            fixed["interval_seconds"] = max(
                fixed.get("playing_seconds", playing)
                + fixed.get("rebuffering_seconds", rebuffering),
                1e-6,
            )
        total = (
            fixed.get("playing_seconds", playing)
            + fixed.get("rebuffering_seconds", rebuffering)
        )
        if total > fixed.get("interval_seconds", interval) + 1e-6:
            problems.append("components exceed interval")
            fixed["interval_seconds"] = total
        if not problems:
            return event
        if self.policy is ErrorPolicy.REPAIR:
            try:
                repaired = replace(event, **fixed)
            except DatasetError as exc:
                # Components whose sum overflows fit no finite interval.
                problems.append(str(exc))
            else:
                self.report.repaired += 1
                return repaired
        reason = (
            RejectReason.NEGATIVE_TIMING
            if RejectReason.NEGATIVE_TIMING.value in problems
            else RejectReason.MALFORMED_EVENT
        )
        self._quarantine(
            event, reason, "; ".join(problems), sequence=seq_no
        )
        return None

    def _try_fold(
        self, sid: str, end: object, sequence: int
    ) -> Optional[ViewRecord]:
        start = self._open[sid]
        beats = self._beats[sid]
        if not beats:
            self._close(sid)
            self._quarantine(
                end, RejectReason.END_WITHOUT_HEARTBEATS,
                f"session {sid!r} ended without heartbeats",
                sequence=sequence,
            )
            return None
        playing = sum(b.playing_seconds for b in beats)
        if playing <= 0:
            self._close(sid)
            self._quarantine(
                end, RejectReason.NO_PLAYBACK,
                f"session {sid!r} reported no playback",
                sequence=sequence,
            )
            return None
        try:
            record = Sessionizer._fold(start, beats, playing)
        except DatasetError as exc:
            self._close(sid)
            self._quarantine(
                end, RejectReason.MALFORMED_EVENT,
                f"session {sid!r} failed to fold: {exc}",
                sequence=sequence,
            )
            return None
        self._close(sid)
        return record

    def _close(self, sid: str) -> None:
        self._open.pop(sid, None)
        self._beats.pop(sid, None)
        self._seen_seq.pop(sid, None)
        self._last_seen.pop(sid, None)
        self._closed.add(sid)

    # ------------------------------------------------------------------
    # Stale-session reaper
    # ------------------------------------------------------------------

    def _reap_stale(self) -> None:
        assert self.max_idle_events is not None
        # ``_last_seen`` holds the open sessions, stalest first.
        stale = []
        for sid, last in self._last_seen.items():
            if self._clock - last <= self.max_idle_events:
                break
            stale.append(sid)
        for sid in sorted(stale):
            self._reap_session(
                sid, f"idle for more than {self.max_idle_events} events"
            )

    def _reap_session(self, sid: str, why: str) -> None:
        """Force-fold (repair) or drop (quarantine) one idle session."""
        start = self._open[sid]
        beats = self._beats[sid]
        self.report.reaped += 1
        obs.emit(
            "ingest.reap",
            session=sid,
            why=why,
            policy=self.policy.value,
            heartbeats=len(beats),
        )
        playing = (
            sum(b.playing_seconds for b in beats)
            if self.policy is ErrorPolicy.REPAIR and beats
            else 0.0
        )
        if playing > 0:
            try:
                record = Sessionizer._fold(start, beats, playing)
            except DatasetError as exc:
                self._close(sid)
                self._quarantine(
                    start, RejectReason.STALE_SESSION,
                    f"stale session {sid!r} ({why}) failed to fold: {exc}",
                )
                return
            self._close(sid)
            self.report.repaired += 1
            self.report.records.append(record)
            return
        self._close(sid)
        self._quarantine(
            start, RejectReason.STALE_SESSION,
            f"stale session {sid!r} dropped ({why})",
        )


# ----------------------------------------------------------------------
# Record -> event stream conversion
# ----------------------------------------------------------------------

HEARTBEAT_SECONDS = 20.0


def events_from_record(record: ViewRecord, session_id: str) -> List[object]:
    """Reconstruct a plausible monitoring-event stream for one record.

    The inverse of sessionization: folding the returned events
    reproduces the record's duration, rebuffer ratio, average bitrate
    and CDN list (with ``weight=1``).  Zero-playback records have no
    valid event representation and raise :class:`IngestError`.
    """
    playing = record.view_duration_hours * 3600.0
    if playing <= 0:
        raise IngestError(
            f"record {record.video_id!r} has no playback to emit"
        )
    if record.rebuffer_ratio >= 1.0:
        raise IngestError("rebuffer ratio 1.0 implies zero playback")
    total = playing / (1.0 - record.rebuffer_ratio)
    rebuffering = total - playing
    n_beats = max(
        1,
        math.ceil(total / HEARTBEAT_SECONDS),
        len(record.cdn_names),
    )
    start = SessionStart(
        session_id=session_id,
        snapshot=record.snapshot,
        publisher_id=record.publisher_id,
        url=record.url,
        video_id=record.video_id,
        device_model=record.device_model,
        os_name=record.os_name,
        content_type=record.content_type,
        bitrate_ladder_kbps=record.bitrate_ladder_kbps,
        user_agent=record.user_agent,
        sdk_name=record.sdk_name,
        sdk_version=record.sdk_version,
        is_syndicated=record.is_syndicated,
        owner_id=record.owner_id,
        isp=record.isp,
        geo=record.geo,
        connection=record.connection,
    )
    events: List[object] = [start]
    per_playing = playing / n_beats
    per_rebuffering = rebuffering / n_beats
    interval = max(HEARTBEAT_SECONDS, per_playing + per_rebuffering)
    for i in range(n_beats):
        events.append(
            Heartbeat(
                session_id=session_id,
                interval_seconds=interval,
                playing_seconds=per_playing,
                rebuffering_seconds=per_rebuffering,
                bitrate_kbps=record.avg_bitrate_kbps,
                cdn_name=record.cdn_names[i % len(record.cdn_names)],
                seq=i,
            )
        )
    events.append(SessionEnd(session_id=session_id))
    return events


def replayable(record: ViewRecord) -> bool:
    """Whether a view has an event stream: it played, and not all of
    its time was rebuffering."""
    return record.view_duration_hours > 0 and record.rebuffer_ratio < 1.0


def events_from_records(records: Sequence[ViewRecord]) -> Iterator[object]:
    """Event streams for many records, skipping unreplayable views."""
    for index, record in enumerate(records):
        if not replayable(record):
            continue
        yield from events_from_record(record, session_id=f"sess_{index:06d}")
