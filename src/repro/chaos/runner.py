"""The chaos campaign of one scenario: :class:`ChaosRun`.

:class:`ChaosRun` is the cached artifact the contract oracles
(:mod:`repro.chaos.zoo`) and the chaos-recovery oracle inspect: every
expensive stage — the replayed event stream, the faulted ingest, the
delivery timeline, the manifest sweep, the recovery pair — is built
lazily and exactly once.  One instance hangs off each
:class:`~repro.testkit.scenario.ScenarioRun`
(:meth:`~repro.testkit.scenario.ScenarioRun.chaos`), so every oracle
over one scenario shares the work, and the matrix reads the per-layer
fault :meth:`~ChaosRun.ledger` into the oracle report.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.chaos.injectors import (
    DeliveryChaosResult,
    IngestChaosResult,
    ManifestChaosResult,
    TelemetryInjection,
    inject_telemetry,
    run_delivery_chaos,
    run_ingest_chaos,
    run_manifest_chaos,
)
from repro.chaos.plan import FaultPlan, Layer
from repro.entities.cdn import CDN, CdnAssignment
from repro.errors import ChaosError
from repro.testkit.scenario import ScenarioRun

#: Clean records replayed through the telemetry/ingest chaos stages.
REPLAY_LIMIT = 160

#: CDN names the delivery timeline falls back to when the plan's
#: targets leave fewer than two healthy CDNs to absorb an outage.
_FALLBACK_CDNS = ("A", "B", "C", "D", "E")


@dataclass
class TelemetryOutcome:
    """Fault ledger of the telemetry layer for one run.

    ``leaked`` counts *silent corruption*: output records that changed
    relative to the fault-free replay in excess of the sessions the
    injector touched.  Every changed record must trace to a touched
    session, so any excess means an untouched session was altered.
    """

    injected: int
    absorbed: int
    leaked: int
    touched_sessions: int
    changed_records: int
    quarantined: int
    deduped: int
    clean_records: int
    faulted_records: int


@dataclass
class RecoveryOutcome:
    """The chaos-with-recovery vs fault-free comparison inputs."""

    injection: TelemetryInjection
    clean_records: Tuple[object, ...]
    recovered_records: Tuple[object, ...]
    quarantined: int
    deduped: int

    @property
    def identical(self) -> bool:
        return list(self.recovered_records) == list(self.clean_records)


class ChaosRun:
    """Every derived chaos artifact of one scenario, cached.

    All stages are pure functions of (spec, plan), so access order
    cannot leak between contracts.
    """

    def __init__(self, run: ScenarioRun) -> None:
        self.scenario = run
        self.spec = run.spec
        self.plan: FaultPlan = run.spec.require_plan()
        self._events: Optional[List[object]] = None
        self._clean_report = None
        self._telemetry: Optional[TelemetryOutcome] = None
        self._delivery: Optional[DeliveryChaosResult] = None
        self._manifest: Optional[ManifestChaosResult] = None
        self._ingest: Optional[IngestChaosResult] = None
        self._recovery: Optional[RecoveryOutcome] = None
        self._figure_rows: Dict[str, Dict[str, List[Dict[str, object]]]] = {}

    # -- shared inputs ---------------------------------------------------

    def events(self) -> List[object]:
        """The clean replayed event stream every injector starts from."""
        from repro.telemetry.ingest import events_from_records

        if self._events is None:
            records = self.scenario.clean_records(REPLAY_LIMIT)
            if not records:
                raise ChaosError(
                    f"scenario {self.spec.name!r} produced no replayable "
                    "records"
                )
            self._events = list(events_from_records(records))
        return self._events

    def clean_ingest(self):
        """The fault-free quarantine-policy ingest of :meth:`events`."""
        from repro.telemetry.ingest import ErrorPolicy, IngestPipeline

        if self._clean_report is None:
            self._clean_report = IngestPipeline(
                ErrorPolicy.QUARANTINE
            ).run(list(self.events()))
        return self._clean_report

    # -- layer stages ----------------------------------------------------

    def telemetry(self) -> TelemetryOutcome:
        """Inject the plan's telemetry faults; account for every one."""
        from repro.telemetry.ingest import ErrorPolicy, IngestPipeline

        if self._telemetry is not None:
            return self._telemetry
        injection = inject_telemetry(self.events(), self.plan)
        faulted = IngestPipeline(ErrorPolicy.QUARANTINE).run(
            injection.events
        )
        clean = self.clean_ingest()
        changed = _multiset_delta(clean.records, faulted.records)
        touched = len(injection.corrupted_sessions)
        leaked = max(0, changed - touched)
        self._telemetry = TelemetryOutcome(
            injected=injection.total_injected,
            absorbed=injection.total_injected - leaked,
            leaked=leaked,
            touched_sessions=touched,
            changed_records=changed,
            quarantined=faulted.quarantined,
            deduped=faulted.deduped,
            clean_records=len(clean.records),
            faulted_records=len(faulted.records),
        )
        self._observe(Layer.TELEMETRY, self._telemetry.injected,
                      self._telemetry.absorbed, self._telemetry.leaked)
        return self._telemetry

    def delivery(self) -> DeliveryChaosResult:
        """Run the plan's CDN faults through the resilient fetcher."""
        if self._delivery is None:
            self._delivery = run_delivery_chaos(
                self.plan, self.assignments()
            )
            self._observe(
                Layer.DELIVERY,
                self._delivery.injected,
                self._delivery.absorbed,
                self._delivery.leaked,
            )
            for latency in self._delivery.recovery_latency.values():
                obs.histogram("chaos.breaker_recovery").observe(latency)
        return self._delivery

    def manifest(self) -> ManifestChaosResult:
        """Sweep corrupted manifests through the real parsers."""
        if self._manifest is None:
            self._manifest = run_manifest_chaos(self.plan)
            self._observe(
                Layer.MANIFEST,
                self._manifest.injected,
                self._manifest.absorbed + self._manifest.survived,
                self._manifest.leaked,
            )
        return self._manifest

    def ingest(self) -> IngestChaosResult:
        """Pressure the ingest pipeline per the plan."""
        if self._ingest is None:
            self._ingest = run_ingest_chaos(self.events(), self.plan)
            self._observe(
                Layer.INGEST,
                self._ingest.injected,
                self._ingest.absorbed,
                self._ingest.leaked,
            )
        return self._ingest

    def recovery(self) -> RecoveryOutcome:
        """Ingest under the plan's *recoverable* faults only.

        The resulting records must equal the fault-free replay exactly —
        the invariant behind the chaos-recovery differential oracle.
        """
        from repro.telemetry.ingest import ErrorPolicy, IngestPipeline

        if self._recovery is None:
            injection = inject_telemetry(
                self.events(), self.plan.recoverable()
            )
            faulted = IngestPipeline(ErrorPolicy.QUARANTINE).run(
                injection.events
            )
            clean = self.clean_ingest()
            self._recovery = RecoveryOutcome(
                injection=injection,
                clean_records=tuple(clean.records),
                recovered_records=tuple(faulted.records),
                quarantined=faulted.quarantined,
                deduped=faulted.deduped,
            )
        return self._recovery

    # -- derived views ---------------------------------------------------

    def assignments(self) -> Tuple[CdnAssignment, ...]:
        """CDN assignments for the delivery timeline: every plan target
        plus enough healthy fallbacks that failover has somewhere to go.
        """
        names = list(self.plan.targets(Layer.DELIVERY))
        for fallback in _FALLBACK_CDNS:
            if len(names) >= len(self.plan.targets(Layer.DELIVERY)) + 2:
                break
            if fallback not in names:
                names.append(fallback)
        return tuple(CdnAssignment(cdn=CDN(name)) for name in names)

    def figure_rows_from(
        self, records: Sequence[object], label: str
    ) -> Dict[str, List[Dict[str, object]]]:
        """The scenario's figure set over a replayed record list.

        ``label`` keys the cache (e.g. ``"clean"`` / ``"recovered"``).
        """
        from repro import figures
        from repro.telemetry.dataset import Dataset

        cached = self._figure_rows.get(label)
        if cached is None:
            result = dataclasses.replace(
                self.scenario.result, dataset=Dataset(list(records))
            )
            cached = {
                figure_id: figures.run_figure(figure_id, result)
                for figure_id in self.spec.figures()
            }
            self._figure_rows[label] = cached
        return cached

    def ledger(self) -> Dict[str, Dict[str, int]]:
        """Per-layer injected/absorbed/leaked, for the oracle report.

        Only layers the plan actually targets are materialized; an
        all-quiet plan yields an empty ledger rather than burning time
        exercising layers with nothing to inject.
        """
        out: Dict[str, Dict[str, int]] = {}
        layers = set(self.plan.layers())
        if Layer.TELEMETRY in layers:
            stage = self.telemetry()
            out["telemetry"] = {
                "injected": stage.injected,
                "absorbed": stage.absorbed,
                "leaked": stage.leaked,
            }
        if Layer.DELIVERY in layers:
            delivery = self.delivery()
            out["delivery"] = {
                "injected": delivery.injected,
                "absorbed": delivery.absorbed,
                "leaked": delivery.leaked,
            }
        if Layer.MANIFEST in layers:
            manifest = self.manifest()
            out["manifest"] = {
                "injected": manifest.injected,
                "absorbed": manifest.absorbed + manifest.survived,
                "leaked": manifest.leaked,
            }
        if Layer.INGEST in layers:
            ingest = self.ingest()
            out["ingest"] = {
                "injected": ingest.injected,
                "absorbed": ingest.absorbed,
                "leaked": ingest.leaked,
            }
        return out

    @staticmethod
    def _observe(
        layer: Layer, injected: int, absorbed: int, leaked: int
    ) -> None:
        for disposition, count in (
            ("injected", injected),
            ("absorbed", absorbed),
            ("leaked", leaked),
        ):
            if count:
                obs.counter(
                    "chaos.faults",
                    layer=layer.value,
                    disposition=disposition,
                ).inc(count)


def _multiset_delta(left: Sequence[object], right: Sequence[object]) -> int:
    """Records present in one list but not the other (multiset max-side)."""
    left_counts, right_counts = Counter(left), Counter(right)
    only_left = sum((left_counts - right_counts).values())
    only_right = sum((right_counts - left_counts).values())
    return max(only_left, only_right)
