"""The instrument taxonomy: every metric the pipeline emits, declared.

Central declarations keep names, kinds, and descriptions consistent
across the modules that record them and give ``repro metrics`` a
complete listing even before anything has been measured.  Adding an
instrument means adding a spec here and recording through the obs
facade at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class InstrumentSpec:
    """One declared instrument: identity, kind, and meaning."""

    name: str
    kind: str  # counter | gauge | histogram
    description: str
    labels: Tuple[str, ...] = ()


CATALOG: Tuple[InstrumentSpec, ...] = (
    # -- synthesis -------------------------------------------------------
    InstrumentSpec(
        "synthesis.records", "counter",
        "view records emitted by the ecosystem generator",
    ),
    InstrumentSpec(
        "synthesis.snapshots", "counter",
        "snapshots synthesized by the ecosystem generator",
    ),
    InstrumentSpec(
        "synthesis.publishers", "gauge",
        "publisher population size of the last generated ecosystem",
    ),
    InstrumentSpec(
        "synthesis.workers", "gauge",
        "process-pool size of the last snapshot synthesis (1 = serial)",
    ),
    # -- dataset ---------------------------------------------------------
    InstrumentSpec(
        "dataset.columnar_hits", "counter",
        "aggregations served by the vectorized column store",
    ),
    InstrumentSpec(
        "dataset.row_fallbacks", "counter",
        "aggregations that fell back to the row-at-a-time path",
    ),
    InstrumentSpec(
        "dataset.records_built", "counter",
        "view records built from a dataset's columns for a caller",
    ),
    InstrumentSpec(
        "columnar.classified", "counter",
        "distinct source values a derived column's function classified",
    ),
    # -- ingestion -------------------------------------------------------
    InstrumentSpec(
        "ingest.events", "counter",
        "raw events offered to the ingestion pipeline",
    ),
    InstrumentSpec(
        "ingest.accepted", "counter",
        "events accepted into an open session",
    ),
    InstrumentSpec(
        "ingest.quarantined", "counter",
        "dead-lettered events/sessions by typed reject reason",
        labels=("reason",),
    ),
    InstrumentSpec(
        "ingest.repaired", "counter",
        "events or sessions fixed under the repair policy",
    ),
    InstrumentSpec(
        "ingest.deduped", "counter",
        "duplicate events dropped (seq numbers, repeated starts/ends)",
    ),
    InstrumentSpec(
        "ingest.reaped", "counter",
        "stale sessions force-folded or dropped by the reaper",
    ),
    InstrumentSpec(
        "ingest.records", "counter",
        "view records folded out of accepted sessions",
    ),
    InstrumentSpec(
        "ingest.open_sessions", "gauge",
        "sessions currently open in the pipeline",
    ),
    InstrumentSpec(
        "ingest.parked_events", "gauge",
        "events parked in the reorder buffer awaiting their start",
    ),
    # -- resilience ------------------------------------------------------
    InstrumentSpec(
        "retry.attempts", "histogram",
        "attempts consumed per retry_with_backoff call",
    ),
    InstrumentSpec(
        "retry.exhausted", "counter",
        "retry_with_backoff calls that ran out of retries",
    ),
    InstrumentSpec(
        "breaker.transitions", "counter",
        "circuit-breaker state transitions",
        labels=("breaker", "from", "to"),
    ),
    InstrumentSpec(
        "breaker.rejected", "counter",
        "calls rejected outright by an open circuit",
        labels=("breaker",),
    ),
    # -- playback --------------------------------------------------------
    InstrumentSpec(
        "playback.sessions", "counter",
        "playback sessions simulated by the lockstep kernel",
    ),
    InstrumentSpec(
        "playback.chunks", "counter",
        "chunk steps simulated (sessions x chunks per session)",
    ),
    # -- delivery --------------------------------------------------------
    InstrumentSpec(
        "multicdn.served", "counter",
        "successful fetches by serving CDN",
        labels=("cdn",),
    ),
    InstrumentSpec(
        "multicdn.failover", "counter",
        "failovers away from a CDN after retry exhaustion",
        labels=("cdn",),
    ),
    InstrumentSpec(
        "multicdn.circuit_skipped", "counter",
        "CDNs skipped without a probe because their circuit was open",
        labels=("cdn",),
    ),
    InstrumentSpec(
        "multicdn.exhausted", "counter",
        "fetches that failed on every eligible CDN",
    ),
    # -- figures ---------------------------------------------------------
    InstrumentSpec(
        "figure.runs", "counter",
        "figure regenerations by figure id",
        labels=("figure",),
    ),
    # -- testkit ---------------------------------------------------------
    InstrumentSpec(
        "testkit.oracles", "counter",
        "oracle executions by kind and outcome status",
        labels=("kind", "status"),
    ),
    InstrumentSpec(
        "testkit.checks", "counter",
        "elementary oracle assertions evaluated",
    ),
    InstrumentSpec(
        "testkit.scenarios", "gauge",
        "scenarios in the most recent matrix run",
    ),
    # -- chaos -----------------------------------------------------------
    InstrumentSpec(
        "chaos.faults", "counter",
        "chaos faults by layer and disposition "
        "(injected / absorbed / leaked)",
        labels=("layer", "disposition"),
    ),
    InstrumentSpec(
        "chaos.breaker_recovery", "histogram",
        "breaker open-to-reclose latency under delivery chaos, "
        "in injected ticks",
    ),
    # -- lint (replint) --------------------------------------------------
    InstrumentSpec(
        "lint.files", "counter",
        "source files read and checked by replint",
    ),
    # -- analysis (repgraph) ---------------------------------------------
    InstrumentSpec(
        "analysis.modules", "gauge",
        "modules parsed by the last whole-program analysis run",
    ),
    InstrumentSpec(
        "analysis.functions", "gauge",
        "functions (incl. methods) indexed by the last analysis run",
    ),
    InstrumentSpec(
        "analysis.call_edges", "gauge",
        "resolved call-graph edges in the last analysis run",
    ),
    InstrumentSpec(
        "analysis.findings", "counter",
        "non-baselined RPL1xx findings by rule code",
        labels=("code",),
    ),
)


def catalog_by_name() -> Dict[str, InstrumentSpec]:
    return {spec.name: spec for spec in CATALOG}


def register_catalog(registry) -> None:
    """Pre-register every label-free instrument with its description.

    Labeled families only materialize when a label value is first
    observed, but their descriptions are still attached so snapshots
    and the taxonomy listing agree.
    """
    for spec in CATALOG:
        if spec.labels:
            continue
        getattr(registry, spec.kind)(spec.name, spec.description)
