"""The measurement-platform backend.

Models the Conviva-style service of §3: it collects monitoring events
from player libraries across devices, sessionizes them into view
records, batches records into snapshot-stamped datasets, and supports
the platform's operational query — aggregate failure/QoE rollups per
management-plane combination, which §5 notes Conviva uses to triage
failures automatically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DatasetError
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.telemetry.dataset import Dataset
from repro.telemetry.ingest import ErrorPolicy, IngestPipeline, IngestReport
from repro.telemetry.records import ViewRecord


@dataclass(frozen=True)
class ComboRollup:
    """Aggregate QoE for one (CDN, protocol, device) combination.

    This is the §5 'management plane combination' unit: failures may be
    caused by any single component or any interaction among them, so
    the platform aggregates per combination.
    """

    cdn_name: str
    protocol: Optional[str]
    device_model: str
    views: float
    view_hours: float
    mean_rebuffer_ratio: float
    mean_bitrate_kbps: float


def _combo_order(
    cdn: str, protocol: Optional[str], device: str
) -> Tuple[str, bool, str, str]:
    """Rollup order: an unclassified protocol (``None``) sorts after the
    known ones of its CDN, which keep their alphabetical order."""
    return (cdn, protocol is None, protocol or "", device)


class TelemetryBackend:
    """Ingests events and records; answers rollup queries."""

    def __init__(self) -> None:
        self._records: List[ViewRecord] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest_record(self, record: ViewRecord) -> None:
        """Feed a pre-sessionized record (bulk import path)."""
        self._records.append(record)

    def ingest_records(self, records: Iterable[ViewRecord]) -> int:
        count = 0
        for record in records:
            self.ingest_record(record)
            count += 1
        return count

    def ingest_events(
        self,
        events: Iterable[object],
        policy: ErrorPolicy | str = ErrorPolicy.QUARANTINE,
    ) -> IngestReport:
        """Batch ingestion of a raw event stream.

        Runs the events through an :class:`IngestPipeline` under the
        given :class:`ErrorPolicy` (``strict`` raises
        :class:`~repro.errors.DatasetError` on the first bad event, as
        the plain :class:`~repro.telemetry.events.Sessionizer` does;
        ``quarantine`` and ``repair`` never raise), stores the folded
        records, and returns the pipeline's :class:`IngestReport` with
        the dead-letter queue.
        """
        report = IngestPipeline(policy).run(events)
        self._records.extend(report.records)
        return report

    @property
    def record_count(self) -> int:
        return len(self._records)

    def dataset(self) -> Dataset:
        """Snapshot the backend's records into an immutable dataset."""
        return Dataset(self._records)

    # ------------------------------------------------------------------
    # Operational queries
    # ------------------------------------------------------------------

    def combo_rollups(
        self, publisher_id: Optional[str] = None
    ) -> List[ComboRollup]:
        """Per-combination QoE rollups, the §5 triaging primitive.

        Records naming multiple CDNs contribute to each CDN's combo
        (chunks were genuinely served by each).
        """
        groups: Dict[Tuple[str, Optional[str], str], List[ViewRecord]] = (
            defaultdict(list)
        )
        for record in self._records:
            if publisher_id is not None and record.publisher_id != publisher_id:
                continue
            protocol = detect_protocol_or_none(record.url)
            protocol_name = protocol.value if protocol else None
            for cdn in record.cdn_names:
                groups[(cdn, protocol_name, record.device_model)].append(
                    record
                )
        rollups: List[ComboRollup] = []
        for (cdn, protocol_name, device), records in sorted(
            groups.items(), key=lambda item: _combo_order(*item[0])
        ):
            views = sum(r.views for r in records)
            if views > 0:
                mean_rebuffer = (
                    sum(r.rebuffer_ratio * r.views for r in records) / views
                )
                mean_bitrate = (
                    sum(r.avg_bitrate_kbps * r.views for r in records) / views
                )
            else:
                # A combo with zero summed views has no meaningful mean;
                # report zeros instead of dividing by zero.
                mean_rebuffer = 0.0
                mean_bitrate = 0.0
            rollups.append(
                ComboRollup(
                    cdn_name=cdn,
                    protocol=protocol_name,
                    device_model=device,
                    views=views,
                    view_hours=sum(r.view_hours for r in records),
                    mean_rebuffer_ratio=mean_rebuffer,
                    mean_bitrate_kbps=mean_bitrate,
                )
            )
        return rollups

    def worst_combos(
        self, n: int = 5, min_views: float = 1.0
    ) -> List[ComboRollup]:
        """Combinations with the worst rebuffering — triage candidates."""
        if n < 1:
            raise DatasetError("n must be positive")
        eligible = [
            rollup
            for rollup in self.combo_rollups()
            if rollup.views >= min_views
        ]
        eligible.sort(key=lambda r: r.mean_rebuffer_ratio, reverse=True)
        return eligible[:n]
