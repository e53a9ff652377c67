"""Fault-tolerant ingestion under deterministic fault injection.

The robustness contract: ``quarantine`` mode never raises no matter how
the stream is corrupted, every rejected event is accounted for in the
dead-letter queue with a typed reason, and sessions the injector did
not touch fold to exactly the records a clean run produces.
"""

import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.injectors import corrupt_heartbeat, inject_telemetry
from repro.chaos.plan import (
    LAYER_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Layer,
)
from repro.constants import ContentType
from repro.errors import ChaosError, DatasetError, IngestError
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.events import (
    Heartbeat,
    SessionEnd,
    SessionStart,
    Sessionizer,
)
from repro.telemetry.ingest import (
    ErrorPolicy,
    IngestPipeline,
    RejectReason,
    RobustSessionizer,
    events_from_record,
    events_from_records,
)
from repro.telemetry.records import ViewRecord


def make_record(i: int = 0, **overrides) -> ViewRecord:
    kwargs = dict(
        snapshot=date(2018, 3, 12),
        publisher_id=f"pub_{i % 5:03d}",
        url="http://a.cdn.example.net/vid/master.m3u8",
        device_model="roku-ultra",
        os_name="roku",
        cdn_names=("A", "B") if i % 3 == 0 else ("A",),
        bitrate_ladder_kbps=(150.0, 600.0),
        view_duration_hours=0.01 + i * 0.001,
        avg_bitrate_kbps=600.0,
        rebuffer_ratio=0.02,
        content_type=ContentType.VOD,
        video_id=f"vid_{i:04d}",
    )
    kwargs.update(overrides)
    return ViewRecord(**kwargs)


def _start(session_id="s1", **overrides) -> SessionStart:
    kwargs = dict(
        session_id=session_id,
        snapshot=date(2018, 3, 12),
        publisher_id="pub_001",
        url="http://a.cdn.example.net/vid_x/master.m3u8",
        video_id="vid_x",
        device_model="roku-ultra",
        os_name="roku",
        content_type=ContentType.VOD,
        bitrate_ladder_kbps=(150.0, 600.0),
    )
    kwargs.update(overrides)
    return SessionStart(**kwargs)


def _beat(session_id="s1", playing=18.0, rebuffering=2.0, seq=None):
    return Heartbeat(
        session_id=session_id,
        interval_seconds=20.0,
        playing_seconds=playing,
        rebuffering_seconds=rebuffering,
        bitrate_kbps=600.0,
        cdn_name="A",
        seq=seq,
    )


def _faulted(events, rate, seed):
    """``events`` under the six per-event kinds at ``rate`` in all."""
    return inject_telemetry(events, FaultPlan.uniform(rate, seed))


@pytest.fixture(scope="module")
def clean_records():
    return [make_record(i) for i in range(40)]


@pytest.fixture(scope="module")
def clean_events(clean_records):
    return list(events_from_records(clean_records))


@pytest.fixture(scope="module")
def clean_report(clean_events):
    return IngestPipeline(ErrorPolicy.QUARANTINE).run(clean_events)


class TestEventRoundTrip:
    def test_clean_stream_reproduces_all_records(
        self, clean_records, clean_report
    ):
        assert len(clean_report.records) == len(clean_records)
        assert clean_report.quarantined == 0
        assert clean_report.deduped == 0
        for original, folded in zip(clean_records, clean_report.records):
            assert folded.video_id == original.video_id
            assert folded.view_duration_hours == pytest.approx(
                original.view_duration_hours
            )
            assert folded.rebuffer_ratio == pytest.approx(
                original.rebuffer_ratio
            )
            assert folded.avg_bitrate_kbps == pytest.approx(
                original.avg_bitrate_kbps
            )
            assert folded.cdn_names == original.cdn_names

    def test_zero_playback_record_has_no_event_form(self):
        record = make_record(0, view_duration_hours=0.0)
        with pytest.raises(IngestError):
            events_from_record(record, session_id="s")


@pytest.mark.robustness
class TestQuarantineFuzz:
    """Seeded corruption sweeps: the quarantine contract, end to end."""

    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quarantine_never_raises_and_accounts_for_every_event(
        self, clean_events, seed
    ):
        corrupted = _faulted(clean_events, 0.25, seed).events
        pipeline = IngestPipeline(ErrorPolicy.QUARANTINE)
        report = pipeline.run(corrupted)  # must not raise
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
            == len(corrupted)
        )
        assert report.quarantined == len(report.dead_letters)
        assert all(
            isinstance(letter.reason, RejectReason)
            for letter in report.dead_letters
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uncorrupted_sessions_match_clean_run(
        self, clean_records, clean_events, clean_report, seed
    ):
        injection = _faulted(clean_events, 0.25, seed)
        report = IngestPipeline(ErrorPolicy.QUARANTINE).run(injection.events)
        clean_by_vid = {r.video_id: r for r in clean_report.records}
        faulty_by_vid = {r.video_id: r for r in report.records}
        untouched = 0
        for index, record in enumerate(clean_records):
            sid = f"sess_{index:06d}"
            if sid in injection.corrupted_sessions:
                continue
            untouched += 1
            assert faulty_by_vid[record.video_id] == clean_by_vid[
                record.video_id
            ]
        assert untouched > 0  # the sweep must actually test something

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repair_mode_never_raises_and_keeps_at_least_quarantine_yield(
        self, clean_events, seed
    ):
        corrupted = _faulted(clean_events, 0.25, seed).events
        quarantine = IngestPipeline(ErrorPolicy.QUARANTINE).run(
            list(corrupted)
        )
        repair = IngestPipeline(ErrorPolicy.REPAIR).run(list(corrupted))
        assert len(repair.records) >= len(quarantine.records)
        assert (
            repair.accepted + repair.deduped + repair.event_quarantined
            == repair.total_events
        )

    def test_heavy_corruption_still_completes(self, clean_events):
        report = IngestPipeline(ErrorPolicy.QUARANTINE).run(
            _faulted(clean_events, 0.6, 99).events
        )
        assert report.total_events > 0
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )


class TestStrictParity:
    """Strict mode must raise exactly what the plain Sessionizer raises."""

    CASES = {
        "duplicate_start": [_start(), _beat(), _start()],
        "orphan_heartbeat": [_beat()],
        "unknown_end": [SessionEnd("ghost")],
        "end_without_heartbeats": [_start(), SessionEnd("s1")],
        "unknown_event_type": [_start(), "not an event"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_strict_matches_plain_sessionizer(self, name):
        events = self.CASES[name]
        with pytest.raises(DatasetError) as plain:
            plain_sessionizer = Sessionizer()
            for event in events:
                plain_sessionizer.ingest(event)
        with pytest.raises(DatasetError) as robust:
            pipeline = IngestPipeline(ErrorPolicy.STRICT)
            for event in events:
                pipeline.ingest(event)
        assert str(robust.value) == str(plain.value)

    def test_strict_clean_stream_matches(self, clean_events, clean_report):
        report = IngestPipeline(ErrorPolicy.STRICT).run(list(clean_events))
        assert report.records == clean_report.records

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, None, "1"]
    )
    @pytest.mark.parametrize(
        "field",
        [
            "interval_seconds",
            "playing_seconds",
            "rebuffering_seconds",
            "bitrate_kbps",
        ],
    )
    def test_non_finite_heartbeat_rejected_on_arrival(self, field, value):
        """A timing that is NaN, infinite or not a number at all is a
        ``DatasetError`` naming the session, from the constructor, the
        plain sessionizer and the strict pipeline alike."""
        with pytest.raises(DatasetError, match="session 's1'"):
            replace(_beat(), **{field: value})
        beat = corrupt_heartbeat(_beat(), **{field: value})
        messages = []
        for sessionizer in (Sessionizer(), IngestPipeline(ErrorPolicy.STRICT)):
            sessionizer.ingest(_start())
            with pytest.raises(DatasetError, match="session 's1'") as error:
                sessionizer.ingest(beat)
            messages.append(str(error.value))
            assert sessionizer.open_sessions == 1
        assert messages[0] == messages[1]


class TestDeadLetterReasons:
    def run(self, events, policy=ErrorPolicy.QUARANTINE, **kwargs):
        return IngestPipeline(policy, **kwargs).run(events)

    def reasons(self, report):
        return [letter.reason for letter in report.dead_letters]

    def test_unknown_session_end(self):
        report = self.run([SessionEnd("ghost")])
        assert self.reasons(report) == [RejectReason.UNKNOWN_SESSION]

    def test_conflicting_duplicate_start(self):
        report = self.run(
            [_start(), _start(publisher_id="pub_other"), _beat(),
             SessionEnd("s1")]
        )
        assert self.reasons(report) == [RejectReason.DUPLICATE_START]
        assert len(report.records) == 1  # first start wins

    def test_identical_duplicate_start_is_deduped_not_quarantined(self):
        report = self.run([_start(), _start(), _beat(), SessionEnd("s1")])
        assert report.deduped == 1
        assert report.quarantined == 0

    def test_negative_timing_quarantined(self):
        bad = corrupt_heartbeat(_beat(), playing_seconds=-5.0)
        report = self.run([_start(), bad, _beat(), SessionEnd("s1")])
        assert RejectReason.NEGATIVE_TIMING in self.reasons(report)
        assert len(report.records) == 1  # session survives on good beats

    def test_negative_timing_repaired_in_repair_mode(self):
        bad = corrupt_heartbeat(_beat(), playing_seconds=-5.0)
        report = self.run(
            [_start(), bad, _beat(), SessionEnd("s1")],
            policy=ErrorPolicy.REPAIR,
        )
        assert report.repaired == 1
        assert report.quarantined == 0
        assert len(report.records) == 1

    def test_end_without_heartbeats(self):
        report = self.run([_start(), SessionEnd("s1")])
        assert self.reasons(report) == [RejectReason.END_WITHOUT_HEARTBEATS]

    def test_orphan_heartbeat_after_close(self):
        report = self.run([_start(), _beat(), SessionEnd("s1"), _beat()])
        assert self.reasons(report) == [RejectReason.ORPHAN_HEARTBEAT]

    def test_orphan_heartbeat_never_started(self):
        report = self.run([_beat("never_started")])
        assert self.reasons(report) == [RejectReason.ORPHAN_HEARTBEAT]
        assert report.dead_letters[0].sequence == 0

    def test_truncated_start_quarantined_at_fold(self):
        report = self.run(
            [_start(publisher_id=""), _beat(), SessionEnd("s1")]
        )
        assert self.reasons(report) == [RejectReason.MALFORMED_EVENT]

    def test_unknown_event_type(self):
        report = self.run([42])
        assert self.reasons(report) == [RejectReason.UNKNOWN_EVENT_TYPE]

    def test_reorder_buffer_replays_early_heartbeats(self):
        report = self.run([_beat(), _beat(), _start(), SessionEnd("s1")])
        assert report.quarantined == 0
        assert len(report.records) == 1
        assert report.records[0].view_duration_hours == pytest.approx(
            36.0 / 3600
        )

    def test_reorder_buffer_overflow(self):
        report = self.run(
            [_beat(f"s{i}") for i in range(5)], reorder_buffer=3
        )
        counts = report.reason_counts()
        assert counts[RejectReason.REORDER_OVERFLOW.value] == 2
        # The three parked beats become orphans at finalize.
        assert counts[RejectReason.ORPHAN_HEARTBEAT.value] == 3

    def test_end_before_start_is_replayed_in_order(self):
        report = self.run([_beat(), SessionEnd("s1"), _start()])
        assert len(report.records) == 1
        assert report.quarantined == 0

    def test_stale_session_reaped_by_idle_gap(self):
        events = [_start("stale"), _beat("stale")]
        events += [
            event
            for i in range(10)
            for event in (_start(f"s{i}"), _beat(f"s{i}"),
                          SessionEnd(f"s{i}"))
        ]
        report = self.run(events, max_idle_events=5)
        assert RejectReason.STALE_SESSION in self.reasons(report)
        assert report.reaped == 1
        assert len(report.records) == 10  # stale session dropped

    def test_stale_session_force_folded_in_repair_mode(self):
        events = [_start("stale"), _beat("stale")]
        events += [
            event
            for i in range(10)
            for event in (_start(f"s{i}"), _beat(f"s{i}"),
                          SessionEnd(f"s{i}"))
        ]
        report = self.run(
            events, policy=ErrorPolicy.REPAIR, max_idle_events=5
        )
        assert report.reaped == 1
        # The stale session is force-folded into a record, not dropped.
        assert len(report.records) == 11
        assert RejectReason.STALE_SESSION not in self.reasons(report)

    def test_duplicate_heartbeat_deduped_by_seq(self):
        beat = _beat(seq=0)
        report = self.run(
            [_start(), beat, beat, _beat(seq=1), SessionEnd("s1")]
        )
        assert report.deduped == 1
        assert report.records[0].view_duration_hours == pytest.approx(
            36.0 / 3600
        )

    def test_duplicate_end_deduped(self):
        report = self.run(
            [_start(), _beat(), SessionEnd("s1"), SessionEnd("s1")]
        )
        assert report.deduped == 1
        assert len(report.records) == 1


@pytest.mark.robustness
class TestIngestEdgeCases:
    """Boundary conditions: empty streams, exact-capacity overflow,
    duplicate bursts larger than any buffering window."""

    def run(self, events, **kwargs):
        return IngestPipeline(ErrorPolicy.QUARANTINE, **kwargs).run(events)

    def test_zero_length_stream_through_injector_and_pipeline(self):
        injection = _faulted([], 0.5, 1)
        assert injection.events == []
        assert injection.log == []
        assert injection.corrupted_sessions == set()
        report = self.run([])
        assert report.total_events == 0
        assert report.records == []
        assert report.quarantined == 0
        assert report.deduped == 0
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )

    def test_zero_length_stream_in_strict_and_repair_modes(self):
        for policy in (ErrorPolicy.STRICT, ErrorPolicy.REPAIR):
            report = IngestPipeline(policy).run([])
            assert report.total_events == 0
            assert report.records == []

    def test_reorder_buffer_fills_to_exact_capacity_without_loss(self):
        # Exactly `capacity` early heartbeats park; the late start
        # replays every one of them, so nothing is lost at the boundary.
        capacity = 4
        events = [_beat("late", seq=i) for i in range(capacity)]
        events += [_start("late"), SessionEnd("late")]
        report = self.run(events, reorder_buffer=capacity)
        assert report.quarantined == 0
        assert len(report.records) == 1
        assert report.records[0].view_duration_hours == pytest.approx(
            capacity * 18.0 / 3600
        )
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )

    def test_one_past_exact_capacity_overflows_exactly_once(self):
        capacity = 4
        events = [_beat("late", seq=i) for i in range(capacity + 1)]
        events += [_start("late"), SessionEnd("late")]
        report = self.run(events, reorder_buffer=capacity)
        counts = report.reason_counts()
        assert counts[RejectReason.REORDER_OVERFLOW.value] == 1
        assert report.quarantined == 1
        # The parked events still replay once the start arrives.
        assert len(report.records) == 1
        assert report.records[0].view_duration_hours == pytest.approx(
            capacity * 18.0 / 3600
        )
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )

    def test_zero_capacity_buffer_rejects_every_early_event(self):
        # Disabling the buffer entirely (capacity 0) quarantines early
        # events as orphans instead of overflowing.
        events = [_beat("late", seq=0), _start("late"), _beat("late", seq=1),
                  SessionEnd("late")]
        report = self.run(events, reorder_buffer=0)
        counts = report.reason_counts()
        assert counts[RejectReason.ORPHAN_HEARTBEAT.value] == 1
        assert RejectReason.REORDER_OVERFLOW.value not in counts
        assert len(report.records) == 1  # folds from the in-order beat

    def test_duplicate_seq_burst_larger_than_reorder_buffer(self):
        # Seq dedup is per-session and unbounded: a burst of duplicates
        # far wider than the reorder buffer still collapses to one beat.
        burst = 12
        events = [_start()]
        events += [_beat(seq=0)] * burst
        events += [_beat(seq=1), SessionEnd("s1")]
        report = self.run(events, reorder_buffer=2)
        assert report.deduped == burst - 1
        assert report.quarantined == 0
        assert len(report.records) == 1
        assert report.records[0].view_duration_hours == pytest.approx(
            36.0 / 3600
        )
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )

    def test_interleaved_duplicate_bursts_dedup_per_session(self):
        events = [_start("a"), _start("b")]
        for _ in range(8):
            events.append(_beat("a", seq=0))
            events.append(_beat("b", seq=0))
        events += [SessionEnd("a"), SessionEnd("b")]
        report = self.run(events)
        # One surviving beat per session; the other 14 dedup away.
        assert report.deduped == 14
        assert len(report.records) == 2
        for record in report.records:
            assert record.view_duration_hours == pytest.approx(18.0 / 3600)


class TestUniformPlanDeterminism:
    def test_same_seed_same_stream(self, clean_events):
        first = _faulted(clean_events, 0.3, 5)
        second = _faulted(clean_events, 0.3, 5)
        assert first.events == second.events
        assert first.log == second.log

    def test_different_seed_different_stream(self, clean_events):
        first = _faulted(clean_events, 0.3, 5)
        second = _faulted(clean_events, 0.3, 6)
        assert first.events != second.events

    def test_zero_rate_is_identity(self, clean_events):
        assert FaultPlan.uniform(0.0, 5).specs == ()
        injection = _faulted(clean_events, 0.0, 5)
        assert injection.events == list(clean_events)
        assert injection.corrupted_sessions == set()

    def test_rates_validated(self):
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ChaosError, match="fault rate"):
                FaultPlan.uniform(rate, 5)
        plan = FaultPlan.uniform(0.3, 5)
        assert [s.kind for s in plan.specs] == [
            FaultKind.DROP,
            FaultKind.DUPLICATE,
            FaultKind.REORDER,
            FaultKind.TRUNCATE,
            FaultKind.NEGATIVE_TIMING,
            FaultKind.INTERLEAVE,
        ]
        assert {s.intensity for s in plan.specs} == {0.3 / 6}


#: Every telemetry kind, in a stable order for test ids.
_TELEMETRY_KINDS = sorted(LAYER_KINDS[Layer.TELEMETRY], key=lambda k: k.value)


@pytest.mark.robustness
class TestPerKindAudit:
    """Each telemetry kind alone: quarantine absorbs it, accounts for
    every event, and leaves every session it did not touch as the clean
    run folds it; the recoverable kinds leave every record as it was."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("kind", _TELEMETRY_KINDS, ids=lambda k: k.value)
    def test_kind_alone_is_accounted_and_contained(
        self, clean_records, clean_events, clean_report, kind, seed
    ):
        spec = FaultSpec(kind, Layer.TELEMETRY, intensity=0.3)
        injection = inject_telemetry(
            clean_events, FaultPlan(name="one-kind", seed=seed, specs=(spec,))
        )
        assert injection.total_injected > 0
        report = IngestPipeline(ErrorPolicy.QUARANTINE).run(injection.events)
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )
        clean_by_vid = {r.video_id: r for r in clean_report.records}
        faulted_by_vid = {r.video_id: r for r in report.records}
        for index, record in enumerate(clean_records):
            if f"sess_{index:06d}" not in injection.corrupted_sessions:
                assert faulted_by_vid[record.video_id] == clean_by_vid[
                    record.video_id
                ]
        if spec.recoverable:
            assert report.records == clean_report.records


def _state(pipeline, registry):
    """Everything a caller can observe of a pipeline between calls."""
    report = pipeline.report
    return (
        report.summary(),
        [
            (letter.reason, letter.detail, letter.sequence, letter.event)
            for letter in report.dead_letters
        ],
        list(report.records),
        registry.snapshot(),
    )


@pytest.mark.robustness
class TestBatchInvariance:
    """Counts, gauges, dead letters and records are exact at every call
    boundary, so they cannot depend on how a stream is split into calls."""

    CHUNK = 37

    @staticmethod
    def _pipeline(policy):
        registry = MetricsRegistry()
        pipeline = RobustSessionizer(
            policy, reorder_buffer=8, max_idle_events=6, metrics=registry
        )
        return pipeline, registry

    @pytest.mark.parametrize(
        "policy", [ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR]
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_single_chunked_and_run_agree(self, clean_events, policy, seed):
        events = _faulted(clean_events, 0.3, seed).events
        single, single_registry = self._pipeline(policy)
        chunked, chunked_registry = self._pipeline(policy)
        for start in range(0, len(events), self.CHUNK):
            chunk = events[start:start + self.CHUNK]
            folded = [r for r in map(single.ingest, chunk) if r is not None]
            assert chunked.ingest_many(chunk) == folded
            assert _state(chunked, chunked_registry) == _state(
                single, single_registry
            )
        whole, whole_registry = self._pipeline(policy)
        whole.run(events)
        single.finalize()
        chunked.finalize()
        expected = _state(whole, whole_registry)
        assert _state(single, single_registry) == expected
        assert _state(chunked, chunked_registry) == expected
        # The stream reached the lenient paths and the reaper.
        assert whole.report.dead_letters and whole.report.reaped

    def test_strict_abort_keeps_counts_of_the_failing_call(self):
        registry = MetricsRegistry()
        pipeline = RobustSessionizer(ErrorPolicy.STRICT, metrics=registry)
        pipeline.ingest_many([_start("a"), _beat("a")])
        with pytest.raises(DatasetError):
            pipeline.ingest_many([_beat("a"), _beat("ghost"), _beat("a")])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ingest.events"] == 4.0
        assert snapshot["counters"]["ingest.accepted"] == 3.0
        assert snapshot["gauges"]["ingest.open_sessions"] == 1.0


#: Heartbeat field values of every type a transport might deliver.
_TIMINGS = st.one_of(
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-5, max_value=10**6),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


@pytest.mark.robustness
class TestFastAccept:
    """``_check_beat``'s fast accept takes only heartbeats the full check
    accepts unchanged; on everything else the two are the same check."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.tuples(_TIMINGS, _TIMINGS, _TIMINGS, _TIMINGS),
        st.sampled_from([ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR]),
    )
    @example((10.0, 10.0, 20.0 - 5e-7, 600.0), ErrorPolicy.QUARANTINE)
    @example((10.0, 10.0, 20.0 - 2e-6, 600.0), ErrorPolicy.QUARANTINE)
    @example((-0.0, 0.0, 5e-324, 0.0), ErrorPolicy.REPAIR)
    @example((1e308, 1e308, 1.5e308, 1.0), ErrorPolicy.REPAIR)
    @example((18.0, 2.0, 20.0, True), ErrorPolicy.QUARANTINE)
    @example((np.float64(18.0), 2.0, 20.0, 600.0), ErrorPolicy.QUARANTINE)
    def test_matches_the_full_check(self, timings, policy):
        playing, rebuffering, interval, bitrate = timings
        beat = corrupt_heartbeat(
            _beat(),
            playing_seconds=playing,
            rebuffering_seconds=rebuffering,
            interval_seconds=interval,
            bitrate_kbps=bitrate,
        )
        fast, full = RobustSessionizer(policy), RobustSessionizer(policy)
        got = fast._check_beat(beat, 0)
        want = full._check_beat_fully(beat, 0)
        if got is beat:
            assert want is beat
        assert got == want
        assert fast.report.dead_letters == full.report.dead_letters
        assert (
            fast.report.counters.registry.snapshot()
            == full.report.counters.registry.snapshot()
        )


def _interleaved(events, width=5):
    """The stream's sessions round-robined ``width`` at a time, so that
    each waits on the others and several go idle together."""
    sessions = {}
    for event in events:
        sessions.setdefault(event.session_id, []).append(event)
    queues = list(sessions.values())
    out = []
    for first in range(0, len(queues), width):
        group = [list(queue) for queue in queues[first:first + width]]
        while any(group):
            for queue in group:
                if queue:
                    out.append(queue.pop(0))
    return out


class _ScanningReaper(RobustSessionizer):
    """The reaper as first written: after every event, scan every
    tracked session and reap the idle ones that are still open."""

    def _reap_stale(self):
        stale = [
            sid
            for sid, last in self._last_seen.items()
            if sid in self._open and self._clock - last > self.max_idle_events
        ]
        for sid in sorted(stale):
            self._reap_session(
                sid, f"idle for more than {self.max_idle_events} events"
            )


@pytest.mark.robustness
class TestReaper:
    """``_last_seen`` holds the open sessions, stalest first, so the
    reaper stops at the first session that is not yet idle."""

    @pytest.mark.parametrize(
        "policy", [ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR]
    )
    @pytest.mark.parametrize("max_idle", [1, 3, 6, 40])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_reaps_what_a_full_scan_reaps(
        self, clean_events, policy, max_idle, seed
    ):
        events = _faulted(_interleaved(clean_events), 0.3, seed).events
        states = []
        for kind in (RobustSessionizer, _ScanningReaper):
            registry = MetricsRegistry()
            pipeline = kind(
                policy, reorder_buffer=8, max_idle_events=max_idle,
                metrics=registry,
            )
            pipeline.run(events)
            states.append(_state(pipeline, registry))
        assert states[0] == states[1]
        if max_idle < 6:
            assert pipeline.report.reaped

    def test_last_seen_holds_only_open_sessions(
        self, clean_records, clean_events
    ):
        pipeline = RobustSessionizer(
            ErrorPolicy.QUARANTINE, max_idle_events=10**9
        )
        events = _interleaved(clean_events)
        for start in range(0, len(events), 25):
            pipeline.ingest_many(events[start:start + 25])
            assert set(pipeline._last_seen) == set(pipeline._open)
        pipeline.run(())
        assert pipeline._last_seen == {}
        assert len(pipeline.report.records) == len(clean_records)
