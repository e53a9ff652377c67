"""Generator/sampler invariants over the session ecosystem build.

These pin down the contract between the synthesis layer and the
analyses: exact view-hour accounting, complete dimension coverage, and
well-formed case-study telemetry.
"""

from collections import defaultdict

import pytest

from repro.constants import Protocol
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import case_video_id


class TestViewHourAccounting:
    def test_publisher_view_hours_match_assignment(self, eco):
        """Realized window view-hours ≈ 2 x daily assignment.

        Exact up to the RTMP cells dropped on non-browser platforms and
        the case-study extra records.
        """
        latest = eco.dataset.latest()
        realized = latest.publisher_view_hours()
        case_ids = set(eco.case_study.labels.values())
        checked = 0
        for publisher in eco.publishers:
            pid = publisher.publisher_id
            if pid in case_ids:
                continue  # extra QoE records perturb these slightly
            target = publisher.daily_view_hours * 2.0
            assert realized[pid] == pytest.approx(target, rel=0.15), pid
            checked += 1
        assert checked > 80

    def test_every_record_weight_positive(self, dataset):
        for record in dataset.records[:5000]:
            assert record.weight > 0
            assert record.view_duration_hours > 0

    def test_record_vh_is_weight_times_duration(self, dataset):
        for record in dataset.records[:2000]:
            assert record.view_hours == pytest.approx(
                record.weight * record.view_duration_hours
            )


class TestDimensionCoverage:
    def test_every_publisher_in_every_snapshot(self, eco):
        for snapshot in eco.dataset.snapshots():
            snap = eco.dataset.for_snapshot(snapshot)
            assert len(snap.publishers()) == len(eco.publishers)

    def test_every_publisher_has_http_protocol_each_snapshot(self, eco):
        for snapshot in eco.dataset.snapshots():
            by_publisher = defaultdict(set)
            for record in eco.dataset.for_snapshot(snapshot):
                protocol = detect_protocol_or_none(record.url)
                if protocol and protocol.is_http_adaptive:
                    by_publisher[record.publisher_id].add(protocol)
            for publisher in eco.publishers:
                assert by_publisher[publisher.publisher_id], (
                    publisher.publisher_id,
                    snapshot,
                )

    def test_ladders_on_records_sorted(self, dataset):
        for record in dataset.records[:2000]:
            rates = record.bitrate_ladder_kbps
            assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_cdn_names_unique_per_record(self, dataset):
        for record in dataset.records[:5000]:
            assert len(set(record.cdn_names)) == len(record.cdn_names)


class TestDashDrivers:
    def test_drivers_lean_on_dash_at_the_end(self, eco):
        latest = eco.dataset.latest()
        for driver in eco.dash_driver_ids:
            dash_vh = 0.0
            total = 0.0
            for record in latest:
                if record.publisher_id != driver:
                    continue
                protocol = detect_protocol_or_none(record.url)
                if protocol is None or not protocol.is_http_adaptive:
                    continue
                total += record.view_hours
                if protocol is Protocol.DASH:
                    dash_vh += record.view_hours
            assert total > 0
            assert dash_vh / total > 0.5, driver

    def test_drivers_use_only_two_protocols_at_the_end(self, eco):
        latest = eco.dataset.latest()
        for driver in eco.dash_driver_ids:
            protocols = {
                detect_protocol_or_none(record.url)
                for record in latest
                if record.publisher_id == driver
            }
            http = {p for p in protocols if p and p.is_http_adaptive}
            assert http == {Protocol.HLS, Protocol.DASH}


class TestCaseStudyRecords:
    def test_qoe_sessions_per_combo(self, eco):
        study = eco.case_study
        expected = eco.config.qoe_sessions
        counts = defaultdict(int)
        for record in eco.dataset:
            if record.video_id != case_video_id():
                continue
            if record.isp in ("X", "Y"):
                counts[(record.publisher_id, record.isp)] += 1
        for label in ("O",) + study.syndicator_labels:
            pid = study.publisher_id(label)
            assert counts[(pid, "X")] == expected
            assert counts[(pid, "Y")] == expected

    def test_qoe_records_are_california_ipads(self, eco):
        for record in eco.dataset:
            if record.video_id == case_video_id() and record.isp in (
                "X",
                "Y",
            ):
                assert record.device_model == "ipad"
                assert record.geo == "CA"
                assert record.connection.value == "wifi"

    def test_case_ladders_match_calibration(self, eco):
        study = eco.case_study
        for record in eco.dataset:
            if record.video_id != case_video_id():
                continue
            label = next(
                (
                    lbl
                    for lbl, pid in study.labels.items()
                    if pid == record.publisher_id
                ),
                None,
            )
            if label is None:
                continue
            assert record.bitrate_ladder_kbps == pytest.approx(
                cal.CASE_STUDY_LADDERS[label]
            )
