"""The production scenario zoo: five chaos scenarios with contracts.

Each scenario pairs a small deterministic ecosystem build with a
cross-layer :class:`~repro.chaos.plan.FaultPlan`.  The ``contract``
oracles at the bottom state what graceful degradation means for each
one; they read the campaign's stages and ledger from the
:class:`~repro.testkit.scenario.ScenarioRun`, and a metamorphic
contract applies its perturbation (a plain function of the built
dataset) to the run's base build:

``flash-crowd``
    One publisher's audience multiplies 5x at the latest snapshot.
    View-hour-weighted shares must move; publisher-count shares must
    not (a flash crowd changes *traffic*, not *adoption*).
``regional-cdn-outage``
    The regional CDN carrying the hot path goes dark mid-run.  Traffic
    must fail over with zero leaked fetches, and the breaker must
    re-close once the outage ends.
``protocol-migration-wave``
    Every RTMP view migrates to HLS.  RTMP support must vanish, HLS
    support must not shrink, and nothing else may move.
``low-end-device-fleet``
    The latest snapshot's fleet is capped to a low-end bitrate.
    Bitrates may only fall; view-hours and engagement must survive.
``abr-policy-zoo``
    The hybrid ABR must never pick above either of its constituent
    policies, across a deterministic grid of player states.

All five plans include at least one *recoverable* telemetry fault so
the chaos-recovery differential oracle is never vacuous on them.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.injectors import DELIVERY_TICKS, RECOVERY_TICKS
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec, Layer, Window
from repro.constants import Protocol
from repro.core.dimensions import CDN_COLUMN, PROTOCOL_COLUMN
from repro.core.prevalence import (
    publisher_support_series,
    view_hour_share_series,
)
from repro.packaging.manifest.detect import detect_protocol_or_none
from repro.telemetry.dataset import Dataset
from repro.testkit.oracles import Check, Skip, oracle
from repro.testkit.scenario import ScenarioRun, ScenarioSpec, register_scenario

#: Bitrate ceiling (kbps) the low-end-device-fleet perturbation imposes.
LOW_END_CAP_KBPS = 800.0

#: Audience multiplier of the flash-crowd perturbation.
FLASH_CROWD_FACTOR = 5.0


# ----------------------------------------------------------------------
# Perturbations (metamorphic halves of the scenarios)
# ----------------------------------------------------------------------


def flash_crowd(dataset: Dataset) -> Dataset:
    """Multiply the busiest publisher's latest-snapshot audience 5x.

    The busiest publisher is the one with the most view-hours at the
    latest snapshot (ties broken by id), so the choice is deterministic.
    """
    latest = dataset.latest_snapshot()
    hours = dataset.latest().publisher_view_hours()
    busiest = min(
        hours, key=lambda publisher_id: (-hours[publisher_id], publisher_id)
    )
    records = [
        dataclasses.replace(
            record, weight=record.weight * FLASH_CROWD_FACTOR
        )
        if record.snapshot == latest and record.publisher_id == busiest
        else record
        for record in dataset.records
    ]
    return Dataset(records)


def protocol_migration_wave(dataset: Dataset) -> Dataset:
    """Migrate every RTMP view to HLS (the §4.1 die-off, overnight)."""
    records = []
    for record in dataset.records:
        if detect_protocol_or_none(record.url) is Protocol.RTMP:
            migrated = (
                record.url.replace("rtmp://", "http://", 1)
                + "/master.m3u8"
            )
            records.append(dataclasses.replace(record, url=migrated))
        else:
            records.append(record)
    return Dataset(records)


def low_end_device_fleet(dataset: Dataset) -> Dataset:
    """Cap the latest snapshot's delivered bitrate at the low-end rung."""
    latest = dataset.snapshots()[-1]
    records = [
        dataclasses.replace(
            record,
            avg_bitrate_kbps=min(record.avg_bitrate_kbps, LOW_END_CAP_KBPS),
        )
        if record.snapshot == latest
        else record
        for record in dataset.records
    ]
    return Dataset(records)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

FLASH_CROWD_PLAN = FaultPlan(
    name="flash-crowd",
    seed=31,
    specs=(
        FaultSpec(
            kind=FaultKind.DUPLICATE,
            layer=Layer.TELEMETRY,
            window=Window(0.0, 0.5),
            intensity=0.08,
        ),
        FaultSpec(
            kind=FaultKind.REORDER_START,
            layer=Layer.TELEMETRY,
            window=Window(0.2, 0.9),
            intensity=0.3,
        ),
        FaultSpec(
            kind=FaultKind.QUARANTINE_STORM,
            layer=Layer.INGEST,
            window=Window(0.4, 0.6),
            intensity=0.2,
        ),
    ),
)

REGIONAL_OUTAGE_PLAN = FaultPlan(
    name="regional-cdn-outage",
    seed=32,
    specs=(
        FaultSpec(
            kind=FaultKind.OUTAGE,
            layer=Layer.DELIVERY,
            window=Window(0.1, 0.6),
            intensity=0.95,
            target="R12",
        ),
        FaultSpec(
            kind=FaultKind.LATENCY,
            layer=Layer.DELIVERY,
            window=Window(0.3, 0.5),
            intensity=0.4,
            target="A",
        ),
        FaultSpec(
            kind=FaultKind.DUPLICATE,
            layer=Layer.TELEMETRY,
            window=Window(0.0, 1.0),
            intensity=0.05,
        ),
    ),
)

MIGRATION_WAVE_PLAN = FaultPlan(
    name="protocol-migration-wave",
    seed=33,
    specs=(
        FaultSpec(
            kind=FaultKind.TRUNCATE,
            layer=Layer.MANIFEST,
            window=Window(0.0, 0.4),
            intensity=0.6,
        ),
        FaultSpec(
            kind=FaultKind.MALFORM,
            layer=Layer.MANIFEST,
            window=Window(0.5, 0.9),
            intensity=0.3,
        ),
        FaultSpec(
            kind=FaultKind.DUPLICATE,
            layer=Layer.TELEMETRY,
            window=Window(0.0, 0.6),
            intensity=0.06,
        ),
        FaultSpec(
            kind=FaultKind.REORDER_START,
            layer=Layer.TELEMETRY,
            window=Window(0.1, 0.8),
            intensity=0.25,
        ),
    ),
)

LOW_END_FLEET_PLAN = FaultPlan(
    name="low-end-device-fleet",
    seed=34,
    specs=(
        FaultSpec(
            kind=FaultKind.ORPHAN_FLOOD,
            layer=Layer.INGEST,
            window=Window(0.2, 0.7),
            intensity=0.15,
        ),
        FaultSpec(
            kind=FaultKind.QUARANTINE_STORM,
            layer=Layer.INGEST,
            window=Window(0.5, 0.8),
            intensity=0.1,
        ),
        FaultSpec(
            kind=FaultKind.DUPLICATE,
            layer=Layer.TELEMETRY,
            window=Window(0.0, 1.0),
            intensity=0.05,
        ),
    ),
)

ABR_ZOO_PLAN = FaultPlan(
    name="abr-policy-zoo",
    seed=35,
    specs=(
        FaultSpec(
            kind=FaultKind.LATENCY,
            layer=Layer.DELIVERY,
            window=Window(0.2, 0.8),
            intensity=0.5,
            target="A",
        ),
        FaultSpec(
            kind=FaultKind.DUPLICATE,
            layer=Layer.TELEMETRY,
            window=Window(0.0, 0.5),
            intensity=0.07,
        ),
        FaultSpec(
            kind=FaultKind.REORDER_START,
            layer=Layer.TELEMETRY,
            window=Window(0.3, 0.9),
            intensity=0.3,
        ),
    ),
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description=(
            "one publisher's audience multiplies 5x at the latest "
            "snapshot under duplicate/reorder telemetry chaos"
        ),
        seed=3101,
        alt_seed=3102,
        snapshot_limit=2,
        n_publishers=24,
        qoe_sessions=12,
        figure_ids=("F2a", "F2b", "F6a"),
        chaos_plan=FLASH_CROWD_PLAN,
    )
)

register_scenario(
    ScenarioSpec(
        name="regional-cdn-outage",
        description=(
            "the regional CDN on the hot path goes dark mid-run; "
            "failover must absorb it and the breaker must re-close"
        ),
        seed=3201,
        alt_seed=3202,
        snapshot_limit=2,
        n_publishers=24,
        qoe_sessions=12,
        figure_ids=("F3a", "F4"),
        chaos_plan=REGIONAL_OUTAGE_PLAN,
    )
)

register_scenario(
    ScenarioSpec(
        name="protocol-migration-wave",
        description=(
            "every RTMP view migrates to HLS overnight while manifests "
            "arrive truncated and malformed"
        ),
        seed=3301,
        alt_seed=3302,
        snapshot_limit=2,
        n_publishers=28,
        qoe_sessions=12,
        figure_ids=("F2a", "F2b"),
        chaos_plan=MIGRATION_WAVE_PLAN,
    )
)

register_scenario(
    ScenarioSpec(
        name="low-end-device-fleet",
        description=(
            "the latest snapshot's fleet is capped to a low-end "
            "bitrate under ingest dead-letter pressure"
        ),
        seed=3401,
        alt_seed=3402,
        snapshot_limit=2,
        n_publishers=24,
        qoe_sessions=12,
        figure_ids=("F11b", "F9a"),
        chaos_plan=LOW_END_FLEET_PLAN,
    )
)

register_scenario(
    ScenarioSpec(
        name="abr-policy-zoo",
        description=(
            "the ABR family under degraded delivery; the hybrid policy "
            "must stay under both constituents"
        ),
        seed=3501,
        alt_seed=3502,
        snapshot_limit=2,
        n_publishers=24,
        qoe_sessions=24,
        figure_ids=("F6a", "F6c", "F2b"),
        chaos_plan=ABR_ZOO_PLAN,
    )
)


# ----------------------------------------------------------------------
# Universal contracts
# ----------------------------------------------------------------------


@oracle(
    "contract",
    "breaker-reclose",
    "every circuit breaker opened by delivery faults re-closes once "
    "the faults end",
)
def breaker_reclose(run: ScenarioRun, check: Check) -> str:
    if Layer.DELIVERY not in run.spec.require_plan().layers():
        raise Skip("plan has no delivery faults")
    delivery = run.delivery
    check.equal(
        delivery.unrecovered,
        [],
        "breakers still open after the recovery tail",
    )
    for cdn in sorted(delivery.opened):
        check.that(
            cdn in delivery.recovery_latency,
            f"breaker for {cdn} opened but never recorded a re-close",
        )
        check.that(
            0 < delivery.recovery_latency[cdn]
            <= DELIVERY_TICKS + RECOVERY_TICKS,
            f"implausible recovery latency for {cdn}: "
            f"{delivery.recovery_latency[cdn]} ticks",
        )
    return (
        f"{len(delivery.opened)} breaker(s) opened and re-closed "
        f"(latencies {delivery.recovery_latency})"
    )


@oracle(
    "contract",
    "no-silent-leaks",
    "every injected fault is absorbed through a typed degradation "
    "path; zero leak into silent corruption",
)
def no_silent_leaks(run: ScenarioRun, check: Check) -> str:
    ledger = run.ledger
    check.that(bool(ledger), "plan exercises no layer at all")
    total = 0
    for layer in sorted(ledger):
        counts = ledger[layer]
        total += counts["injected"]
        check.equal(counts["leaked"], 0, f"{layer} leaked faults")
    check.that(total > 0, "plan injected nothing anywhere")
    return f"{total} faults injected across {len(ledger)} layer(s), 0 leaked"


# ----------------------------------------------------------------------
# Scenario-specific contracts
# ----------------------------------------------------------------------


@oracle(
    "contract",
    "flash-crowd-shares",
    "a flash crowd moves view-hour-weighted shares but not "
    "publisher-count shares",
    scenarios=("flash-crowd",),
)
def flash_crowd_shares(run: ScenarioRun, check: Check) -> str:
    base = run.result.dataset
    perturbed = flash_crowd(base)
    check.equal(
        publisher_support_series(perturbed, CDN_COLUMN),
        publisher_support_series(base, CDN_COLUMN),
        "publisher-count CDN shares under a flash crowd",
    )
    latest = base.snapshots()[-1]
    before = view_hour_share_series(base, CDN_COLUMN)[latest]
    after = view_hour_share_series(perturbed, CDN_COLUMN)[latest]
    moved = max(
        abs(after.get(cdn, 0.0) - before.get(cdn, 0.0))
        for cdn in set(before) | set(after)
    )
    check.that(
        moved > 0.1,
        f"view-hour CDN shares barely moved (max delta {moved:.3f}pp) — "
        "the flash crowd had no weight",
    )
    return f"publisher shares frozen; view-hour shares moved {moved:.1f}pp"


@oracle(
    "contract",
    "regional-outage-contained",
    "a regional CDN outage is absorbed by failover",
    scenarios=("regional-cdn-outage",),
)
def regional_outage_contained(run: ScenarioRun, check: Check) -> str:
    delivery = run.delivery
    check.that(delivery.injected > 0, "outage window injected nothing")
    check.that(
        delivery.absorbed > 0, "no fetch was served during the outage"
    )
    check.equal(
        delivery.leaked, 0, "fetches exhausted every CDN (leaked)"
    )
    check.that(
        "R12" in delivery.opened,
        "the outage never opened the regional CDN's breaker",
    )
    healthy_served = sum(
        count
        for cdn, count in delivery.served.items()
        if cdn not in run.spec.require_plan().targets(Layer.DELIVERY)
    )
    check.that(
        healthy_served > 0,
        "no healthy CDN ever served — failover did not engage",
    )
    return (
        f"outage absorbed ({delivery.absorbed} served under fault, "
        f"{healthy_served} by healthy CDNs)"
    )


@oracle(
    "contract",
    "migration-wave-monotone",
    "an RTMP-to-HLS migration erases RTMP support, never shrinks HLS "
    "support, and preserves every record",
    scenarios=("protocol-migration-wave",),
)
def migration_wave_monotone(run: ScenarioRun, check: Check) -> str:
    base = run.result.dataset
    perturbed = protocol_migration_wave(base)
    check.equal(
        len(perturbed), len(base), "record count across the migration"
    )
    support_before = publisher_support_series(base, PROTOCOL_COLUMN)
    support_after = publisher_support_series(perturbed, PROTOCOL_COLUMN)
    migrated = 0
    for snapshot in base.snapshots():
        before, after = support_before[snapshot], support_after[snapshot]
        rtmp_before = before.get(Protocol.RTMP, 0.0)
        migrated += rtmp_before > 0
        check.equal(
            after.get(Protocol.RTMP, 0.0),
            0.0,
            f"RTMP support at {snapshot} after the wave",
        )
        check.that(
            after.get(Protocol.HLS, 0.0) >= before.get(Protocol.HLS, 0.0),
            f"HLS support shrank at {snapshot}: "
            f"{after.get(Protocol.HLS, 0.0):.2f} < "
            f"{before.get(Protocol.HLS, 0.0):.2f}",
        )
        for protocol in (Protocol.DASH, Protocol.MSS, Protocol.HDS):
            check.close(
                after.get(protocol, 0.0),
                before.get(protocol, 0.0),
                f"{protocol.value} support at {snapshot} (bystander)",
            )
    check.that(
        migrated > 0,
        "no snapshot had RTMP support to migrate — the wave is vacuous",
    )
    return f"RTMP erased across {len(base.snapshots())} snapshot(s)"


@oracle(
    "contract",
    "low-end-fleet-caps",
    "capping the fleet's bitrate only lowers bitrates; view-hours and "
    "engagement survive intact",
    scenarios=("low-end-device-fleet",),
)
def low_end_fleet_caps(run: ScenarioRun, check: Check) -> str:
    base = run.result.dataset.records
    perturbed = low_end_device_fleet(run.result.dataset).records
    check.equal(len(perturbed), len(base), "record count under the cap")
    capped = 0
    for before, after in zip(base, perturbed):
        if after.avg_bitrate_kbps != before.avg_bitrate_kbps:
            capped += 1
            check.that(
                after.avg_bitrate_kbps == LOW_END_CAP_KBPS
                and before.avg_bitrate_kbps > LOW_END_CAP_KBPS,
                "cap changed a bitrate it should not have "
                f"({before.avg_bitrate_kbps} -> {after.avg_bitrate_kbps})",
            )
    check.that(capped > 0, "the cap touched no record — vacuous fleet")
    check.close(
        sum(r.view_hours for r in perturbed),
        sum(r.view_hours for r in base),
        "total view-hours under the cap",
    )
    check.equal(
        [r.rebuffer_ratio for r in perturbed],
        [r.rebuffer_ratio for r in base],
        "rebuffer ratios under the cap",
    )
    return f"{capped} record(s) capped at {LOW_END_CAP_KBPS:.0f} kbps"


@oracle(
    "contract",
    "abr-hybrid-floor",
    "the hybrid ABR never picks a rendition above either of its "
    "constituent policies",
    scenarios=("abr-policy-zoo",),
)
def abr_hybrid_floor(run: ScenarioRun, check: Check) -> str:
    from repro.entities.ladder import BitrateLadder
    from repro.playback.abr import (
        AbrState,
        BufferBasedAbr,
        HybridAbr,
        ThroughputAbr,
    )

    ladders = (
        BitrateLadder.from_bitrates([300.0, 700.0, 1500.0, 3000.0]),
        BitrateLadder.from_bitrates([235.0, 375.0, 560.0, 750.0, 1050.0]),
    )
    throughput = ThroughputAbr()
    buffer_based = BufferBasedAbr()
    hybrid = HybridAbr(throughput, buffer_based)
    states = 0
    for ladder in ladders:
        for buffer_seconds in (0.0, 4.0, 10.0, 18.0, 30.0):
            for ewma_kbps in (200.0, 600.0, 1200.0, 4000.0):
                state = AbrState(
                    buffer_seconds=buffer_seconds,
                    last_throughput_kbps=ewma_kbps,
                    ewma_throughput_kbps=ewma_kbps,
                )
                by_rate = throughput.choose(ladder, state)
                by_buffer = buffer_based.choose(ladder, state)
                chosen = hybrid.choose(ladder, state)
                check.equal(
                    chosen.bitrate_kbps,
                    min(by_rate.bitrate_kbps, by_buffer.bitrate_kbps),
                    f"hybrid choice at buffer={buffer_seconds}s "
                    f"ewma={ewma_kbps}kbps",
                )
                states += 1
    return f"hybrid stayed at the min across {states} player states"
