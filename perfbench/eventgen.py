"""Seeded monitoring-event streams for the ``ingest-persist`` workload.

The benchmark owns this input: every parameter below is written here,
not read from the program, so a change to ``src/`` never changes what a
workload ingests.  A stream is built in three steps:

1. ``clean_sessions`` draws each session's player events (one start,
   one heartbeat per ``HEARTBEAT_SECONDS`` of viewing, one end), with
   view durations from the Fig 8 lognormals per platform.
2. ``interleave`` merges the sessions the way a collector sees them: a
   bounded set of sessions is open at once and the next event comes
   from a random open session, so each session's own order is kept.
3. ``inject_faults`` corrupts ``FAULT_RATE`` of the events, split
   evenly over the six modes of ``repro.telemetry.faults.FaultMix``.
   It is linear in the stream: the interleave fault picks its partner
   from a bounded window of recently seen sessions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from datetime import date
from typing import Dict, List, Sequence, Tuple

from repro.constants import ConnectionType, ContentType
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart

#: The six corruption modes, in ``FaultMix`` field order.
FAULT_KINDS = (
    "drop", "duplicate", "reorder", "truncate", "negative_timing", "interleave",
)

#: Fig 8 view-duration lognormals per platform: (median hours, sigma).
DURATIONS = {
    "browser": (0.090, 1.10),
    "mobile": (0.095, 1.10),
    "set_top": (0.260, 1.00),
}
PLATFORM_WEIGHTS = (("browser", 0.45), ("mobile", 0.40), ("set_top", 0.15))
DEVICES = {
    "browser": (("chrome", "windows"), ("safari", "macos"), ("firefox", "linux")),
    "mobile": (("iphone", "ios"), ("ipad", "ios"), ("galaxy", "android")),
    "set_top": (("roku", "roku"), ("appletv", "tvos"), ("firetv", "fireos")),
}
MANIFESTS = ("/master.m3u8", "/manifest.mpd", ".ism/manifest", "/manifest.f4m")
CDNS = ("A", "B", "C", "D", "E", "F")
LADDERS = (
    (400.0, 800.0, 1600.0, 3000.0),
    (235.0, 375.0, 560.0, 750.0, 1050.0, 1750.0, 2350.0, 3000.0, 4300.0),
    (800.0, 1200.0, 2000.0),
)
SNAPSHOTS = (date(2017, 10, 2), date(2017, 10, 16), date(2017, 10, 30))
PUBLISHERS = 40
HEARTBEAT_SECONDS = 20.0
MAX_VIEW_HOURS = 3.0
FAULT_RATE = 0.20
REORDER_SPAN = 3
RECENT_SESSIONS = 64


@dataclass(frozen=True)
class StreamSpec:
    """Size and shape of one generated stream."""

    sessions: int = 1500
    open_sessions: int = 300


@dataclass
class Stream:
    """One stream ready to ingest, with what went into it."""

    events: List[object]
    sessions: int
    faults: Dict[str, int]


def raw_heartbeat(beat: Heartbeat, **overrides: object) -> Heartbeat:
    """A copy of ``beat`` with fields overridden, validation skipped,
    as a payload that crossed a lossy transport would arrive."""
    copy = object.__new__(Heartbeat)
    for f in fields(Heartbeat):
        object.__setattr__(copy, f.name, overrides.get(f.name, getattr(beat, f.name)))
    return copy


def clean_sessions(rng: random.Random, spec: StreamSpec) -> List[List[object]]:
    """Every session's events, in order, before interleaving."""
    names = [name for name, _ in PLATFORM_WEIGHTS]
    weights = [w for _, w in PLATFORM_WEIGHTS]
    sessions: List[List[object]] = []
    for index in range(spec.sessions):
        platform = rng.choices(names, weights)[0]
        median, sigma = DURATIONS[platform]
        hours = min(rng.lognormvariate(0.0, sigma) * median, MAX_VIEW_HOURS)
        device, os_name = rng.choice(DEVICES[platform])
        ladder = rng.choice(LADDERS)
        cdns = tuple(rng.sample(CDNS, 1 + (rng.random() < 0.3)))
        publisher = f"pub{rng.randrange(PUBLISHERS):03d}"
        video = f"v{rng.randrange(10_000):05d}"
        sid = f"sess{index:06d}"
        is_app = platform != "browser"
        start = SessionStart(
            session_id=sid,
            snapshot=rng.choice(SNAPSHOTS),
            publisher_id=publisher,
            url=f"http://{cdns[0].lower()}.cdn.example.net/{video}"
            + rng.choice(MANIFESTS),
            video_id=video,
            device_model=device,
            os_name=os_name,
            content_type=ContentType.LIVE if rng.random() < 0.2 else ContentType.VOD,
            bitrate_ladder_kbps=ladder,
            user_agent=None if is_app else f"Mozilla/5.0 ({os_name})",
            sdk_name="PlayerSDK" if is_app else None,
            sdk_version=f"3.{rng.randrange(6)}" if is_app else None,
            connection=ConnectionType.WIFI,
        )
        rebuffer = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 0.08)
        events: List[object] = [start]
        remaining = hours * 3600.0
        seq = 0
        while remaining > 0.0:
            playing = min(remaining, HEARTBEAT_SECONDS * (1.0 - rebuffer))
            events.append(
                Heartbeat(
                    session_id=sid,
                    interval_seconds=HEARTBEAT_SECONDS,
                    playing_seconds=playing,
                    rebuffering_seconds=HEARTBEAT_SECONDS * rebuffer,
                    bitrate_kbps=ladder[min(len(ladder) - 1, rng.randrange(len(ladder) + 1))],
                    cdn_name=cdns[seq % len(cdns)],
                    seq=seq,
                )
            )
            remaining -= playing
            seq += 1
        events.append(SessionEnd(session_id=sid))
        sessions.append(events)
    return sessions


def interleave(
    sessions: Sequence[List[object]], open_sessions: int, rng: random.Random
) -> List[object]:
    """Merge sessions, at most ``open_sessions`` open at once, keeping
    each session's event order."""
    pending = iter(sessions)
    active: List[List[object]] = []  # [events, next position]
    out: List[object] = []
    exhausted = False
    while True:
        while not exhausted and len(active) < open_sessions:
            nxt = next(pending, None)
            if nxt is None:
                exhausted = True
            else:
                active.append([nxt, 0])
        if not active:
            return out
        slot = rng.randrange(len(active))
        entry = active[slot]
        events, position = entry
        out.append(events[position])
        if position + 1 == len(events):
            active[slot] = active[-1]
            active.pop()
        else:
            entry[1] = position + 1


def inject_faults(
    events: Sequence[object], rate: float, rng: random.Random
) -> Tuple[List[object], Dict[str, int]]:
    """Corrupt ``rate`` of ``events``, one mode per corrupted event."""
    counts = {kind: 0 for kind in FAULT_KINDS}
    out: List[object] = []
    delayed: List[Tuple[int, object]] = []
    seen = set()
    recent: List[str] = []
    for index, event in enumerate(events):
        sid = event.session_id
        if sid not in seen:
            seen.add(sid)
            recent.append(sid)
            if len(recent) > RECENT_SESSIONS:
                recent.pop(0)
        u = rng.random()
        if u >= rate:
            out.append(event)
        else:
            kind = FAULT_KINDS[min(int(u / rate * len(FAULT_KINDS)), len(FAULT_KINDS) - 1)]
            counts[kind] += 1
            if kind == "duplicate":
                out.append(event)
                out.append(event)
            elif kind == "reorder":
                delayed.append((index + 1 + rng.randrange(REORDER_SPAN), event))
            elif kind == "truncate":
                out.append(_truncate(event, rng))
            elif kind == "negative_timing":
                out.append(_negate(event, rng))
            elif kind == "interleave":
                out.append(_readdress(event, rng.choice(recent)))
            # "drop": the event is lost.
        if delayed:
            due = [e for at, e in delayed if at <= index]
            if due:
                delayed = [(at, e) for at, e in delayed if at > index]
                out.extend(due)
    out.extend(e for _, e in sorted(delayed, key=lambda d: d[0]))
    return out, counts


def _truncate(event: object, rng: random.Random) -> object:
    if isinstance(event, SessionStart):
        return replace(event, **{rng.choice(("publisher_id", "url")): ""})
    if isinstance(event, Heartbeat):
        return raw_heartbeat(event, playing_seconds=float("inf"))
    return SessionEnd(session_id="")


def _negate(event: object, rng: random.Random) -> object:
    if not isinstance(event, Heartbeat):
        return event
    if rng.random() < 0.5:
        return raw_heartbeat(event, playing_seconds=-event.playing_seconds - 1.0)
    return raw_heartbeat(
        event, rebuffering_seconds=-event.rebuffering_seconds - 1.0
    )


def _readdress(event: object, other: str) -> object:
    if isinstance(event, Heartbeat):
        return raw_heartbeat(event, session_id=other)
    if isinstance(event, SessionEnd):
        return SessionEnd(session_id=other)
    return replace(event, session_id=other)


def event_stream(seed: int, spec: StreamSpec = StreamSpec()) -> Stream:
    """The workload input for one round: a pure function of ``seed``."""
    rng = random.Random(seed)
    sessions = clean_sessions(rng, spec)
    merged = interleave(sessions, spec.open_sessions, rng)
    events, faults = inject_faults(merged, FAULT_RATE, rng)
    return Stream(events=events, sessions=spec.sessions, faults=faults)
