"""Streaming-TV measurement platform (the Conviva substitute, §3).

Player-side monitoring events, sessionization into per-view records,
a backend with operational rollups, bi-weekly snapshot scheduling,
and the queryable :class:`Dataset` container that every analysis
consumes.
"""

from repro.telemetry.records import ViewRecord
from repro.telemetry.events import (
    SessionStart,
    Heartbeat,
    SessionEnd,
    Sessionizer,
)
from repro.telemetry.backend import TelemetryBackend, ComboRollup
from repro.telemetry.dataset import Dataset
from repro.telemetry.ingest import (
    DeadLetter,
    ErrorPolicy,
    IngestPipeline,
    IngestReport,
    RejectReason,
    RobustSessionizer,
    events_from_record,
    events_from_records,
)
from repro.telemetry.snapshots import (
    SnapshotSchedule,
    default_schedule,
    STUDY_START,
    STUDY_END,
)
from repro.telemetry.quality import QualityIssue, QualityReport, audit

__all__ = [
    "ViewRecord",
    "SessionStart",
    "Heartbeat",
    "SessionEnd",
    "Sessionizer",
    "TelemetryBackend",
    "ComboRollup",
    "Dataset",
    "SnapshotSchedule",
    "default_schedule",
    "STUDY_START",
    "STUDY_END",
    "QualityIssue",
    "QualityReport",
    "audit",
    "DeadLetter",
    "ErrorPolicy",
    "IngestPipeline",
    "IngestReport",
    "RejectReason",
    "RobustSessionizer",
    "events_from_record",
    "events_from_records",
]
