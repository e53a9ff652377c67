"""Layer injectors: execute one :class:`~repro.chaos.plan.FaultPlan`.

Each injector interprets the plan's specs for one layer against the
*real* pipeline component — no mocks — and reports a fault ledger in
the shared injected / absorbed / leaked vocabulary:

``injected``
    faults the injector actually applied (a window with nothing in it
    injects nothing);
``absorbed``
    faults the layer handled through a *typed* degradation path
    (dead-letter, failover, parse rejection);
``leaked``
    faults that escaped the typed paths — an untyped exception, a
    fetch with no fallback, an event unaccounted for by the ingest
    invariant.  A robust pipeline leaks zero.

All randomness descends from ``plan.spec_seed(spec)`` so repeated runs
are byte-identical; delivery time is an injected tick counter, never
the wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec, Layer
from repro.constants import ContentType, Protocol
from repro.entities.cdn import CdnAssignment
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Video
from repro.errors import (
    AllCdnsFailedError,
    ChaosError,
    ManifestError,
    ProtocolDetectionError,
    TransportError,
)
from repro.resilience import BackoffPolicy, CircuitState
from repro.telemetry.events import Heartbeat, SessionEnd, SessionStart

#: How far (in events) a REORDER fault may delay any event.
REORDER_SPAN = 3

#: How far (in events) a REORDER_START fault may delay a SessionStart.
#: Capped at the session's own heartbeat count so the start never slips
#: past its SessionEnd — which keeps the fault exactly recoverable by
#: the ingest reorder buffer (park + replay in arrival order).
REORDER_START_SPAN = 3

#: Fetches on the delivery timeline under the plan's windows, then
#: fault-free fetches in which every opened breaker must re-close.
DELIVERY_TICKS = 120
RECOVERY_TICKS = 60

#: Manifests in the corruption sweep, cycling the four protocols.
MANIFEST_DOCUMENTS = 64


# ----------------------------------------------------------------------
# Telemetry layer
# ----------------------------------------------------------------------


def corrupt_heartbeat(beat: Heartbeat, **overrides: object) -> Heartbeat:
    """A copy of ``beat`` with fields overridden, validation skipped.

    Real transports deliver payloads that ``Heartbeat.__post_init__``
    refuses to build; this materializes one the way deserialization
    effectively would.
    """
    corrupted = object.__new__(Heartbeat)
    for f in fields(Heartbeat):
        value = overrides.get(f.name, getattr(beat, f.name))
        object.__setattr__(corrupted, f.name, value)
    return corrupted


@dataclass(frozen=True)
class FaultEvent:
    """One applied corruption, for audit: (kind, stream index, session)."""

    kind: str
    index: int
    session_id: str


@dataclass
class TelemetryInjection:
    """A faulted event stream plus the audit of what was done to it.

    ``corrupted_sessions`` names every session a fault touched,
    including the partner of an interleave, so every session outside it
    must fold exactly as in the clean stream.
    """

    events: List[object]
    injected: Dict[str, int] = field(default_factory=dict)
    log: List[FaultEvent] = field(default_factory=list)
    corrupted_sessions: Set[str] = field(default_factory=set)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


def inject_telemetry(
    events: Sequence[object], plan: FaultPlan
) -> TelemetryInjection:
    """Apply the plan's telemetry specs to an event stream, in order.

    Specs compose left to right: each sees the stream as the previous
    one left it, with its window re-mapped onto the current length.
    """
    out = TelemetryInjection(events=list(events))
    for spec in plan.specs_for(Layer.TELEMETRY):
        rng = random.Random(plan.spec_seed(spec))
        if spec.kind is FaultKind.REORDER_START:
            _delay_starts(out, spec, rng)
        else:
            _pointwise(out, spec, rng)
    return out


def _count(out: TelemetryInjection, spec: FaultSpec, index: int,
           sid: str) -> None:
    key = spec.kind.value
    out.injected[key] = out.injected.get(key, 0) + 1
    out.log.append(FaultEvent(kind=key, index=index, session_id=sid))
    if sid:
        out.corrupted_sessions.add(sid)


def _pointwise(
    out: TelemetryInjection, spec: FaultSpec, rng: random.Random
) -> None:
    """The per-event kinds: one draw per event in the window, and a hit
    with probability ``intensity``."""
    kind = spec.kind
    i0, i1 = spec.window.indices(len(out.events))
    result: List[object] = []
    # Events a REORDER hit holds back: (position released after, event).
    delayed: List[Tuple[int, object]] = []
    # Session ids in first-seen order, the partners INTERLEAVE picks from.
    seen: Dict[str, None] = {}
    for index, event in enumerate(out.events):
        sid = str(getattr(event, "session_id", ""))
        if sid:
            seen.setdefault(sid)
        if not (i0 <= index < i1) or rng.random() >= spec.intensity:
            result.append(event)
        elif kind is FaultKind.DROP:
            _count(out, spec, index, sid)
        elif kind is FaultKind.DUPLICATE:
            result += (event, event)
            _count(out, spec, index, sid)
        elif kind is FaultKind.REORDER:
            delayed.append((index + 1 + rng.randrange(REORDER_SPAN), event))
            _count(out, spec, index, sid)
        elif kind is FaultKind.INTERLEAVE:
            result.append(_interleave(out, spec, event, rng, index, sid, seen))
        else:
            result.append(_mangle(out, spec, event, rng, index, sid))
        if delayed:
            result += [e for at, e in delayed if at <= index]
            delayed = [(at, e) for at, e in delayed if at > index]
    result += [e for _, e in sorted(delayed, key=lambda d: d[0])]
    out.events = result


def _mangle(out: TelemetryInjection, spec: FaultSpec, event: object,
            rng: random.Random, index: int, sid: str) -> object:
    """TRUNCATE blanks a required field, as a cut-off payload would;
    NEGATIVE_TIMING makes a heartbeat timing negative.  An event that
    has no such field passes through unfaulted."""
    if spec.kind is FaultKind.TRUNCATE:
        if isinstance(event, SessionStart):
            name = rng.choice(("publisher_id", "url"))
            mangled: object = replace(event, **{name: ""})
        elif isinstance(event, Heartbeat):
            # inf rather than nan: nan != nan would make two replays of
            # one faulted stream compare unequal.
            mangled = corrupt_heartbeat(event, playing_seconds=float("inf"))
        elif isinstance(event, SessionEnd):
            mangled = SessionEnd(session_id="")
        else:
            return event
    elif not isinstance(event, Heartbeat):
        return event
    elif rng.random() < 0.5:
        mangled = corrupt_heartbeat(
            event, playing_seconds=-abs(event.playing_seconds) - 1.0
        )
    else:
        mangled = corrupt_heartbeat(
            event, rebuffering_seconds=-abs(event.rebuffering_seconds) - 1.0
        )
    _count(out, spec, index, sid)
    return mangled


def _interleave(out: TelemetryInjection, spec: FaultSpec, event: object,
                rng: random.Random, index: int, sid: str,
                seen: Mapping[str, None]) -> object:
    """Re-address an event to another session seen so far; both
    sessions count as corrupted."""
    others = [s for s in seen if s != sid]
    if not sid or not others:
        return event
    other = others[rng.randrange(len(others))]
    _count(out, spec, index, sid)
    out.corrupted_sessions.add(other)
    if isinstance(event, Heartbeat):
        return corrupt_heartbeat(event, session_id=other)
    return replace(event, session_id=other)


def _delay_starts(
    out: TelemetryInjection, spec: FaultSpec, rng: random.Random
) -> None:
    """Delay a SessionStart behind 1..k of its own heartbeats.

    The delayed start never crosses its SessionEnd, so the ingest
    reorder buffer parks the early beats and replays them in arrival
    (= original) order once the start lands: the fold output is
    byte-identical, which is exactly what makes this kind recoverable.
    """
    events = out.events
    n = len(events)
    i0, i1 = spec.window.indices(n)
    index = 0
    while index < n:
        event = events[index]
        if (
            isinstance(event, SessionStart)
            and i0 <= index < i1
            and rng.random() < spec.intensity
        ):
            sid = event.session_id
            beats = 0
            while (
                index + 1 + beats < n
                and isinstance(events[index + 1 + beats], Heartbeat)
                and events[index + 1 + beats].session_id == sid
            ):
                beats += 1
            if beats > 0:
                k = 1 + rng.randrange(min(REORDER_START_SPAN, beats))
                events.pop(index)
                events.insert(index + k, event)
                _count(out, spec, index, sid)
                index += k  # the start's new position; resume after it
        index += 1


# ----------------------------------------------------------------------
# Delivery layer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BreakerTransition:
    """One breaker state edge, stamped in injected ticks."""

    tick: int
    cdn: str
    from_state: str
    to_state: str


@dataclass
class DeliveryChaosResult:
    """Ledger of a delivery-chaos timeline."""

    served: Dict[str, int] = field(default_factory=dict)
    injected: int = 0
    absorbed: int = 0
    leaked: int = 0
    transitions: List[BreakerTransition] = field(default_factory=list)
    opened: Set[str] = field(default_factory=set)
    final_states: Dict[str, str] = field(default_factory=dict)
    #: opened-to-last-reclose latency per CDN, in injected ticks.
    recovery_latency: Dict[str, int] = field(default_factory=dict)

    @property
    def unrecovered(self) -> List[str]:
        """CDNs whose breaker opened and never re-closed."""
        return sorted(
            cdn
            for cdn in self.opened
            if self.final_states.get(cdn) != CircuitState.CLOSED.value
        )


def run_delivery_chaos(
    plan: FaultPlan, assignments: Sequence[CdnAssignment]
) -> DeliveryChaosResult:
    """Drive a :class:`ResilientFetcher` through the plan's CDN faults.

    The timeline is :data:`DELIVERY_TICKS` VoD fetches under the plan's
    delivery windows followed by :data:`RECOVERY_TICKS` fault-free
    fetches, all on an injected tick clock; the tail is where every
    opened breaker must find its way back to closed.
    """
    from repro.delivery.multicdn import CdnBroker, ResilientFetcher

    specs = plan.specs_for(Layer.DELIVERY)
    # Assignment order sets the default throughput ranking (first =
    # fastest): the scenario run lists fault targets first, so outages
    # hit the CDN actually carrying traffic rather than an idle
    # straggler.
    order = list(dict.fromkeys(a.cdn.name for a in assignments))
    names = sorted(order)
    for spec in specs:
        if spec.target not in names:
            raise ChaosError(
                f"delivery fault targets unknown CDN {spec.target!r} "
                f"(known: {', '.join(names)})"
            )
    kbps = {name: 4000.0 - 500.0 * offset for offset, name in enumerate(order)}

    now = [0.0]
    fetcher = ResilientFetcher(
        CdnBroker(),
        policy=BackoffPolicy(retries=1, base_delay=0.0, jitter=0.0),
        recovery_timeout=10.0,
        clock=lambda: now[0],
        seed=plan.seed,
    )
    rngs = {id(spec): random.Random(plan.spec_seed(spec)) for spec in specs}
    result = DeliveryChaosResult()
    prev_states = {
        name: fetcher.breaker(name).state.value for name in names
    }
    last_opened: Dict[str, int] = {}

    for tick in range(DELIVERY_TICKS + RECOVERY_TICKS):
        now[0] = float(tick)
        failing: Set[str] = set()
        slowdown: Dict[str, float] = {}
        # Draws are consumed tick by tick for EVERY spec, active window
        # or not, so the stream stays aligned across plan edits.
        for spec in specs:
            active = tick < DELIVERY_TICKS and spec.window.contains_tick(
                tick, DELIVERY_TICKS
            )
            hit = rngs[id(spec)].random() < spec.intensity
            if not (active and hit):
                continue
            assert spec.target is not None
            if spec.kind is FaultKind.OUTAGE:
                failing.add(spec.target)
            else:  # LATENCY
                factor = slowdown.get(spec.target, 1.0)
                slowdown[spec.target] = factor * (1.0 - spec.intensity)
        result.injected += len(failing) + len(slowdown)

        def do_fetch(name: str) -> str:
            if name in failing:
                raise TransportError(f"injected outage on {name}")
            return name

        try:
            outcome = fetcher.fetch(assignments, ContentType.VOD, do_fetch)
        except AllCdnsFailedError:
            result.leaked += 1
        else:
            served = outcome.cdn_name
            result.served[served] = result.served.get(served, 0) + 1
            fetcher.broker.observe(
                served, kbps[served] * slowdown.get(served, 1.0)
            )
            if failing or slowdown:
                result.absorbed += 1
        for name in names:
            state = fetcher.breaker(name).state.value
            if state != prev_states[name]:
                result.transitions.append(
                    BreakerTransition(
                        tick=tick,
                        cdn=name,
                        from_state=prev_states[name],
                        to_state=state,
                    )
                )
                if state == CircuitState.OPEN.value:
                    result.opened.add(name)
                    last_opened.setdefault(name, tick)
                elif state == CircuitState.CLOSED.value and name in last_opened:
                    result.recovery_latency[name] = (
                        tick - last_opened[name]
                    )
                prev_states[name] = state

    result.final_states = {
        name: fetcher.breaker(name).state.value for name in names
    }
    return result


# ----------------------------------------------------------------------
# Manifest layer
# ----------------------------------------------------------------------

#: Protocols the manifest corpus cycles through (all writer-backed).
_MANIFEST_PROTOCOLS: Tuple[Protocol, ...] = (
    Protocol.HLS,
    Protocol.DASH,
    Protocol.MSS,
    Protocol.HDS,
)


@dataclass
class ManifestChaosResult:
    """Ledger of a manifest-corruption sweep."""

    injected: int = 0
    absorbed: int = 0
    leaked: int = 0
    survived: int = 0
    #: absorbed counts by the typed error class that caught the fault.
    absorbed_by: Dict[str, int] = field(default_factory=dict)


def run_manifest_chaos(plan: FaultPlan) -> ManifestChaosResult:
    """Feed :data:`MANIFEST_DOCUMENTS` truncated/malformed manifests
    through the real parsers.

    Every faulted document must either still parse (``survived``) or be
    rejected with a typed :class:`~repro.errors.ManifestError` /
    :class:`~repro.errors.ProtocolDetectionError` (``absorbed``).  Any
    other exception is a ``leaked`` fault — the "no untyped failure"
    contract the packaging layer advertises.
    """
    from repro.packaging.manifest import manifest_writer_for, parser_for

    specs = plan.specs_for(Layer.MANIFEST)
    result = ManifestChaosResult()
    ladder = BitrateLadder.from_bitrates([400.0, 800.0, 1600.0])
    rngs = {id(spec): random.Random(plan.spec_seed(spec)) for spec in specs}

    for index in range(MANIFEST_DOCUMENTS):
        protocol = _MANIFEST_PROTOCOLS[index % len(_MANIFEST_PROTOCOLS)]
        video = Video(video_id=f"vid{index:04d}", duration_seconds=60.0)
        text = manifest_writer_for(protocol).render(
            video, ladder, "http://cdn-a.example.net"
        )
        faulted = False
        for spec in specs:
            rng = rngs[id(spec)]
            # One draw per (spec, document) keeps streams aligned.
            hit = rng.random() < spec.intensity
            in_window = spec.window.contains_tick(index, MANIFEST_DOCUMENTS)
            if not in_window or not hit:
                continue
            faulted = True
            if spec.kind is FaultKind.TRUNCATE:
                cut = max(1, int(len(text) * (1.0 - spec.intensity)))
                text = text[:cut]
            else:  # MALFORM
                chars = list(text)
                for pos in range(len(chars)):
                    if rng.random() < spec.intensity:
                        chars[pos] = "~"
                text = "".join(chars)
        if not faulted:
            continue
        result.injected += 1
        try:
            parser_for(protocol).parse(text)
        except (ManifestError, ProtocolDetectionError) as exc:
            result.absorbed += 1
            key = type(exc).__name__
            result.absorbed_by[key] = result.absorbed_by.get(key, 0) + 1
        except Exception:  # replint: disable=RPL003 - the leak detector:
            # an untyped escape from a parser IS the defect being counted.
            result.leaked += 1
        else:
            result.survived += 1
    return result


# ----------------------------------------------------------------------
# Ingest layer
# ----------------------------------------------------------------------

#: Session-id prefix marking chaos-injected events, so the ledger can
#: attribute dead letters to the injection rather than the workload.
CHAOS_SESSION_PREFIX = "chaos"


@dataclass(frozen=True)
class PoisonEvent:
    """An event of a type the pipeline has never heard of."""

    session_id: str
    payload: str = "\x00garbage\x00"


@dataclass
class IngestChaosResult:
    """Ledger of an ingest-pressure run."""

    report: object  # IngestReport; typed loosely to avoid a hard import
    injected: int = 0
    absorbed: int = 0
    leaked: int = 0
    invariant_ok: bool = True


def inject_ingest_pressure(
    events: Sequence[object], plan: FaultPlan
) -> Tuple[List[object], int]:
    """Interleave quarantine-storm and orphan-flood events per the plan.

    Returns the pressured stream and the number of injected events.
    Injected events carry :data:`CHAOS_SESSION_PREFIX` session ids so
    they are attributable in the dead-letter queue.
    """
    out = list(events)
    injected = 0
    for spec_index, spec in enumerate(plan.specs_for(Layer.INGEST)):
        rng = random.Random(plan.spec_seed(spec))
        n = len(out)
        i0, i1 = spec.window.indices(n)
        additions: List[Tuple[int, object]] = []
        for index in range(i0, i1):
            if rng.random() >= spec.intensity:
                continue
            sid = f"{CHAOS_SESSION_PREFIX}_{spec_index}_{index:06d}"
            if spec.kind is FaultKind.QUARANTINE_STORM:
                additions.append((index, PoisonEvent(session_id=sid)))
            else:  # ORPHAN_FLOOD: heartbeats whose start never comes
                additions.append(
                    (
                        index,
                        Heartbeat(
                            session_id=sid,
                            interval_seconds=20.0,
                            playing_seconds=18.0,
                            rebuffering_seconds=0.0,
                            bitrate_kbps=800.0,
                            cdn_name="chaos-cdn",
                            seq=0,
                        ),
                    )
                )
        for offset, (index, event) in enumerate(additions):
            out.insert(index + offset, event)
        injected += len(additions)
    return out, injected


def run_ingest_chaos(
    events: Sequence[object], plan: FaultPlan
) -> IngestChaosResult:
    """Run the pressured stream through a quarantine-policy pipeline.

    ``absorbed`` counts injected events that surfaced in the dead-letter
    queue or dedup counters; ``leaked`` is injected minus absorbed plus
    any events the accounting invariant cannot explain — both must be
    zero for the pipeline's "one corrupt event never poisons a batch"
    claim to hold.
    """
    from repro.telemetry.ingest import ErrorPolicy, IngestPipeline

    pressured, injected = inject_ingest_pressure(events, plan)
    report = IngestPipeline(ErrorPolicy.QUARANTINE).run(pressured)
    absorbed = sum(
        1
        for letter in report.dead_letters
        if letter.sequence >= 0
        and str(getattr(letter.event, "session_id", "")).startswith(
            CHAOS_SESSION_PREFIX
        )
    )
    invariant_ok = (
        report.accepted + report.deduped + report.event_quarantined
        == report.total_events
    )
    unaccounted = abs(
        report.total_events
        - (report.accepted + report.deduped + report.event_quarantined)
    )
    return IngestChaosResult(
        report=report,
        injected=injected,
        absorbed=absorbed,
        leaked=max(0, injected - absorbed) + unaccounted,
        invariant_ok=invariant_ok,
    )
