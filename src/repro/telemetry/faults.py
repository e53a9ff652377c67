"""Deterministic fault injection for the telemetry event path.

Robustness claims are only worth what exercises them: this module
corrupts event streams the way real SDK fleets do — dropped packets,
duplicated sends, reordering, truncated fields, impossible timings,
crossed sessions — under a seeded RNG so every corrupted stream is
exactly reproducible.  Lossy *call* paths are exercised elsewhere: the
chaos plane's delivery injector drives :mod:`repro.resilience` retries
and breakers through the real multi-CDN fetcher.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DatasetError
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart


def _raw_heartbeat(**values: object) -> Heartbeat:
    """Build a Heartbeat bypassing ``__post_init__`` validation.

    Real transports deliver invalid payloads that a same-process
    constructor would refuse to build; tests need such objects to
    exist, so we materialize them the way deserialization effectively
    would.
    """
    beat = object.__new__(Heartbeat)
    for f in fields(Heartbeat):
        object.__setattr__(beat, f.name, values[f.name])
    return beat


def corrupt_heartbeat(beat: Heartbeat, **overrides: object) -> Heartbeat:
    """A copy of ``beat`` with fields overridden, validation skipped."""
    values = {f.name: getattr(beat, f.name) for f in fields(Heartbeat)}
    values.update(overrides)
    return _raw_heartbeat(**values)


@dataclass(frozen=True)
class FaultMix:
    """Per-event probabilities for each corruption mode.

    Probabilities are disjoint (at most one fault per event); their sum
    must not exceed 1.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    truncate: float = 0.0
    negative_timing: float = 0.0
    interleave: float = 0.0

    def __post_init__(self) -> None:
        rates = [getattr(self, f.name) for f in fields(self)]
        if any(r < 0 for r in rates):
            raise DatasetError("fault rates must be >= 0")
        if sum(rates) > 1.0 + 1e-9:
            raise DatasetError("fault rates must sum to <= 1")

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    @classmethod
    def uniform(cls, rate: float) -> "FaultMix":
        """Spread ``rate`` evenly across all six corruption modes."""
        if not 0.0 <= rate <= 1.0:
            raise DatasetError("fault rate must be in [0, 1]")
        share = rate / 6.0
        return cls(
            drop=share,
            duplicate=share,
            reorder=share,
            truncate=share,
            negative_timing=share,
            interleave=share,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One applied corruption, for audit: (kind, stream index, session)."""

    kind: str
    index: int
    session_id: str


class FaultInjector:
    """Applies a seeded :class:`FaultMix` to an event stream.

    After :meth:`apply`, ``corrupted_sessions`` names every session any
    fault touched (including sessions hit indirectly, e.g. the partner
    of an interleave swap) and ``log`` records each applied fault, so
    tests can assert that *untouched* sessions survive byte-identical.
    """

    REORDER_SPAN = 3

    def __init__(self, mix: FaultMix, seed: int = 0) -> None:
        self.mix = mix
        self.seed = seed
        self.log: List[FaultEvent] = []
        self.corrupted_sessions: Set[str] = set()

    def apply(self, events: Iterable[object]) -> List[object]:
        rng = random.Random(self.seed)
        self.log = []
        self.corrupted_sessions = set()
        out: List[object] = []
        # Events being delayed for the reorder fault: (release_at, event).
        delayed: List[Tuple[int, object]] = []
        seen_sessions: List[str] = []

        def flush_due(position: int) -> None:
            due = [e for at, e in delayed if at <= position]
            delayed[:] = [(at, e) for at, e in delayed if at > position]
            out.extend(due)

        for index, event in enumerate(events):
            sid = getattr(event, "session_id", "")
            if sid and sid not in seen_sessions:
                seen_sessions.append(sid)
            kind = self._draw(rng)
            if kind is None:
                out.append(event)
            elif kind == "drop":
                self._record("drop", index, sid)
            elif kind == "duplicate":
                out.append(event)
                out.append(event)
                self._record("duplicate", index, sid)
            elif kind == "reorder":
                span = 1 + rng.randrange(self.REORDER_SPAN)
                delayed.append((index + span, event))
                self._record("reorder", index, sid)
            elif kind == "truncate":
                out.append(self._truncate(event, rng, index, sid))
            elif kind == "negative_timing":
                out.append(self._negate(event, rng, index, sid))
            elif kind == "interleave":
                out.append(self._interleave(event, rng, index, sid,
                                            seen_sessions))
            flush_due(index)
        out.extend(e for _, e in sorted(delayed, key=lambda d: d[0]))
        return out

    # ------------------------------------------------------------------

    def _draw(self, rng: random.Random) -> Optional[str]:
        u = rng.random()
        acc = 0.0
        for f in fields(self.mix):
            acc += getattr(self.mix, f.name)
            if u < acc:
                return f.name
        return None

    def _record(self, kind: str, index: int, sid: str) -> None:
        self.log.append(FaultEvent(kind=kind, index=index, session_id=sid))
        if sid:
            self.corrupted_sessions.add(sid)

    def _truncate(
        self, event: object, rng: random.Random, index: int, sid: str
    ) -> object:
        """Blank a required string field, as a cut-off payload would."""
        if isinstance(event, SessionStart):
            field_name = rng.choice(["publisher_id", "url"])
            self._record("truncate", index, sid)
            return replace(event, **{field_name: ""})
        if isinstance(event, Heartbeat):
            self._record("truncate", index, sid)
            # inf rather than nan so corrupted streams stay comparable
            # (nan != nan would break determinism assertions).
            return corrupt_heartbeat(event, playing_seconds=float("inf"))
        # SessionEnd has only the id; truncating it makes the session
        # unknown, corrupting this session.
        self._record("truncate", index, sid)
        return SessionEnd(session_id="")

    def _negate(
        self, event: object, rng: random.Random, index: int, sid: str
    ) -> object:
        if isinstance(event, Heartbeat):
            self._record("negative_timing", index, sid)
            if rng.random() < 0.5:
                return corrupt_heartbeat(
                    event, playing_seconds=-abs(event.playing_seconds) - 1.0
                )
            return corrupt_heartbeat(
                event,
                rebuffering_seconds=-abs(event.rebuffering_seconds) - 1.0,
            )
        return event  # timings only exist on heartbeats: no-op otherwise

    def _interleave(
        self,
        event: object,
        rng: random.Random,
        index: int,
        sid: str,
        seen_sessions: Sequence[str],
    ) -> object:
        """Re-address an event to another session seen in the stream."""
        others = [s for s in seen_sessions if s != sid]
        if not sid or not others:
            return event
        other = others[rng.randrange(len(others))]
        self._record("interleave", index, sid)
        self.corrupted_sessions.add(other)
        if isinstance(event, Heartbeat):
            return corrupt_heartbeat(event, session_id=other)
        if isinstance(event, SessionEnd):
            return SessionEnd(session_id=other)
        return replace(event, session_id=other)
