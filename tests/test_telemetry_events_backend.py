"""Event sessionization and the telemetry backend."""

from datetime import date

import pytest

from repro.constants import ContentType
from repro.errors import DatasetError
from repro.telemetry.backend import TelemetryBackend
from repro.telemetry.events import (
    Heartbeat,
    SessionEnd,
    SessionStart,
    Sessionizer,
)
from tests.test_telemetry_records import make_record


def _start(session_id="s1", **overrides):
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
        sdk_name="RokuSDK",
        sdk_version="8.1",
    )
    kwargs.update(overrides)
    return SessionStart(**kwargs)


def _beat(session_id="s1", playing=18.0, rebuffering=2.0, bitrate=600.0,
          cdn="A"):
    return Heartbeat(
        session_id=session_id,
        interval_seconds=20.0,
        playing_seconds=playing,
        rebuffering_seconds=rebuffering,
        bitrate_kbps=bitrate,
        cdn_name=cdn,
    )


class TestSessionizer:
    def test_fold_single_session(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        sessionizer.ingest(_beat())
        sessionizer.ingest(_beat(rebuffering=0.0, playing=20.0))
        record = sessionizer.ingest(SessionEnd("s1"))
        assert record is not None
        assert record.view_duration_hours == pytest.approx(38.0 / 3600)
        assert record.rebuffer_ratio == pytest.approx(2.0 / 40.0)

    def test_bitrate_is_play_time_weighted(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        sessionizer.ingest(_beat(playing=10, rebuffering=0, bitrate=600))
        sessionizer.ingest(_beat(playing=20, rebuffering=0, bitrate=150))
        record = sessionizer.ingest(SessionEnd("s1"))
        assert record.avg_bitrate_kbps == pytest.approx(
            (600 * 10 + 150 * 20) / 30
        )

    def test_multi_cdn_views_record_each_cdn_once(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        sessionizer.ingest(_beat(cdn="A"))
        sessionizer.ingest(_beat(cdn="B"))
        sessionizer.ingest(_beat(cdn="A"))
        record = sessionizer.ingest(SessionEnd("s1"))
        assert record.cdn_names == ("A", "B")

    def test_interleaved_sessions(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start("s1"))
        sessionizer.ingest(_start("s2", publisher_id="pub_002"))
        sessionizer.ingest(_beat("s2"))
        sessionizer.ingest(_beat("s1"))
        first = sessionizer.ingest(SessionEnd("s2"))
        assert first.publisher_id == "pub_002"
        assert sessionizer.open_sessions == 1

    def test_duplicate_start_rejected(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        with pytest.raises(DatasetError):
            sessionizer.ingest(_start())

    def test_orphan_heartbeat_rejected(self):
        with pytest.raises(DatasetError):
            Sessionizer().ingest(_beat())

    def test_orphan_end_rejected(self):
        with pytest.raises(DatasetError):
            Sessionizer().ingest(SessionEnd("ghost"))

    def test_session_without_heartbeats_rejected(self):
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        with pytest.raises(DatasetError):
            sessionizer.ingest(SessionEnd("s1"))

    def test_heartbeat_component_validation(self):
        with pytest.raises(DatasetError):
            Heartbeat(
                session_id="s",
                interval_seconds=20,
                playing_seconds=15,
                rebuffering_seconds=10,
                bitrate_kbps=100,
                cdn_name="A",
            )

    def test_unknown_event_type_rejected(self):
        with pytest.raises(DatasetError):
            Sessionizer().ingest("not an event")


class TestBackend:
    def test_event_path_produces_records(self):
        backend = TelemetryBackend()
        report = backend.ingest_events(
            [_start(), _beat(), SessionEnd("s1")], policy="strict"
        )
        assert len(report.records) == 1
        assert backend.record_count == 1
        assert len(backend.dataset()) == 1

    def test_bulk_record_import(self):
        backend = TelemetryBackend()
        count = backend.ingest_records(make_record() for _ in range(5))
        assert count == 5
        assert backend.record_count == 5

    def test_combo_rollups_group_by_cdn_protocol_device(self):
        backend = TelemetryBackend()
        backend.ingest_record(make_record(cdn_names=("A",)))
        backend.ingest_record(make_record(cdn_names=("A",)))
        backend.ingest_record(make_record(cdn_names=("B",)))
        rollups = backend.combo_rollups()
        keys = {(r.cdn_name, r.protocol, r.device_model) for r in rollups}
        assert keys == {
            ("A", "hls", "roku-ultra"),
            ("B", "hls", "roku-ultra"),
        }

    def test_multi_cdn_record_contributes_to_both(self):
        backend = TelemetryBackend()
        backend.ingest_record(make_record(cdn_names=("A", "B")))
        assert len(backend.combo_rollups()) == 2

    def test_rollup_means_weighted_by_views(self):
        backend = TelemetryBackend()
        backend.ingest_record(
            make_record(weight=1, rebuffer_ratio=0.0)
        )
        backend.ingest_record(
            make_record(weight=3, rebuffer_ratio=0.4)
        )
        rollup = backend.combo_rollups()[0]
        assert rollup.mean_rebuffer_ratio == pytest.approx(0.3)

    def test_unclassified_protocol_sorts_after_known_ones(self):
        """A URL the Table 1 detector cannot classify rolls up under
        protocol ``None``, after the known protocols of its CDN."""
        backend = TelemetryBackend()
        for url in (
            "http://a/x/video.unknownext",
            "http://a/x/master.m3u8",
            "http://a/x/manifest.mpd",
        ):
            backend.ingest_record(
                make_record(cdn_names=("A",), device_model="ipad", url=url)
            )
        backend.ingest_record(make_record(cdn_names=("B",)))
        rollups = backend.combo_rollups()
        assert [(r.cdn_name, r.protocol) for r in rollups] == [
            ("A", "dash"), ("A", "hls"), ("A", None), ("B", "hls"),
        ]
        assert len(backend.worst_combos(n=5)) == 4

    def test_worst_combos_sorted_by_rebuffering(self):
        backend = TelemetryBackend()
        backend.ingest_record(
            make_record(cdn_names=("A",), rebuffer_ratio=0.01)
        )
        backend.ingest_record(
            make_record(cdn_names=("B",), rebuffer_ratio=0.30)
        )
        worst = backend.worst_combos(n=1)
        assert worst[0].cdn_name == "B"

    def test_worst_combos_min_views_filter(self):
        backend = TelemetryBackend()
        backend.ingest_record(
            make_record(cdn_names=("A",), weight=1, rebuffer_ratio=0.5)
        )
        backend.ingest_record(
            make_record(cdn_names=("B",), weight=100, rebuffer_ratio=0.1)
        )
        worst = backend.worst_combos(n=5, min_views=10)
        assert [r.cdn_name for r in worst] == ["B"]

    def test_publisher_filter(self):
        backend = TelemetryBackend()
        backend.ingest_record(make_record(publisher_id="pub_001"))
        backend.ingest_record(make_record(publisher_id="pub_002"))
        assert len(backend.combo_rollups(publisher_id="pub_001")) == 1

    def test_zero_view_combo_reports_zeroed_means(self):
        backend = TelemetryBackend()
        # A record whose summed views is zero cannot be constructed
        # through the validated path; forge one the way a corrupted
        # store would, and make sure rollups degrade instead of crash.
        record = make_record()
        forged = object.__new__(type(record))
        for name, value in vars(record).items():
            object.__setattr__(forged, name, value)
        object.__setattr__(forged, "weight", 0.0)
        backend._records.append(forged)
        rollup = backend.combo_rollups()[0]
        assert rollup.views == 0.0
        assert rollup.mean_rebuffer_ratio == 0.0
        assert rollup.mean_bitrate_kbps == 0.0

    def test_event_path_does_not_double_retain_records(self):
        backend = TelemetryBackend()
        backend.ingest_events(
            [_start(), _beat(), SessionEnd("s1")], policy="strict"
        )
        assert backend.record_count == 1

    def test_ingest_events_batch_quarantine(self):
        backend = TelemetryBackend()
        report = backend.ingest_events(
            [_start(), _beat(), SessionEnd("s1"), SessionEnd("ghost")],
            policy="quarantine",
        )
        assert len(report.records) == 1
        assert report.quarantined == 1
        assert backend.record_count == 1

    def test_ingest_events_strict_raises(self):
        backend = TelemetryBackend()
        with pytest.raises(DatasetError):
            backend.ingest_events([SessionEnd("ghost")], policy="strict")


class TestSessionizerStateRecovery:
    def test_failed_fold_leaves_session_recoverable(self):
        """A fold failure must not destroy the session's state."""
        sessionizer = Sessionizer()
        sessionizer.ingest(_start())
        with pytest.raises(DatasetError):
            sessionizer.ingest(SessionEnd("s1"))  # no heartbeats yet
        assert sessionizer.open_sessions == 1
        sessionizer.ingest(_beat())
        record = sessionizer.ingest(SessionEnd("s1"))
        assert record is not None
        assert sessionizer.open_sessions == 0
