"""Differential oracles: independent code paths must agree.

Each oracle executes the scenario along two (or more) implementations
that are supposed to be observationally equivalent and asserts they
are.  These are the contracts the columnar backend (PR 4), the
parallel generator (PR 4), the robust ingest path (PR 1), and the
manifest writers/parsers (seed) each promised individually — here they
are enforced together, per scenario, forever.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from repro.constants import HTTP_ADAPTIVE_PROTOCOLS, ContentType, Protocol
from repro.core.complexity import publisher_complexity
from repro.core.storage import SWEEP_TOLERANCES, build_case_origins
from repro.core.summary import (
    live_vod_cdn_segregation,
    top_cdn_concentration,
)
from repro.core.syndication import (
    observed_syndicators,
    syndicator_fraction_per_owner,
)
from repro.delivery.network import default_isp_profiles
from repro.entities.ladder import BitrateLadder
from repro.entities.video import Video
from repro.errors import AnalysisError
from repro.packaging.manifest import manifest_writer_for, parser_for
from repro.packaging.manifest.detect import (
    detect_protocol,
    sample_manifest_url,
)
from repro.playback.abr import BufferBasedAbr, HybridAbr, ThroughputAbr
from repro.parallel import spawn_streams
from repro.playback.session import SessionConfig, simulate_sessions
from repro.synthesis.calibration import QOE_COMBOS
from repro.synthesis.generator import _build_plan, _snapshot_t
from repro.telemetry.dataset import Dataset
from repro.telemetry.ingest import (
    ErrorPolicy,
    IngestPipeline,
    events_from_records,
)
from repro.testkit.oracles import Check, Skip, oracle
from repro.testkit.reference import (
    ReferenceOriginServer,
    RowDataset,
    ScalarSessionSampler,
    live_vod_cdn_segregation_loop,
    observed_syndicators_loop,
    simulate_session_scalar,
    syndicator_fraction_per_owner_loop,
    top_cdn_concentration_loop,
    unique_sdks_loop,
)
from repro.testkit.scenario import PARALLEL_JOBS, ScenarioRun

#: Records replayed through the clean strict-vs-repair comparison.
_CLEAN_REPLAY_LIMIT = 200

#: Distinct dataset ladders exercised per protocol round-trip.
_LADDER_SAMPLE = 3

#: Distinct dataset ladders mixed into each playback batch.
_PLAYBACK_LADDERS = 12


#: Analyses that group columns, each beside the record loop it replaced.
_GROUPED_VS_LOOP: Tuple[Tuple[str, Callable, Callable], ...] = (
    (
        "unique SDKs",
        lambda view: {
            pid: metrics.unique_sdks
            for pid, metrics in publisher_complexity(view).items()
        },
        unique_sdks_loop,
    ),
    ("observed syndicators", observed_syndicators, observed_syndicators_loop),
    (
        "syndicator fraction per owner",
        syndicator_fraction_per_owner,
        syndicator_fraction_per_owner_loop,
    ),
    ("top-5 CDN share", top_cdn_concentration, top_cdn_concentration_loop),
    (
        "live/VoD CDN segregation",
        live_vod_cdn_segregation,
        live_vod_cdn_segregation_loop,
    ),
)


def _outcome(analysis: Callable[[Dataset], object], view: Dataset) -> object:
    """What ``analysis`` returns on ``view``, or the error it raises."""
    try:
        return analysis(view)
    except AnalysisError as error:
        return f"AnalysisError: {error}"


@oracle(
    "differential",
    "row-vs-columnar",
    "every figure agrees between the column store and the row reference, "
    "and every column group-by equals the record loop it replaced",
)
def row_vs_columnar(run: ScenarioRun, check: Check) -> str:
    """The PR 4 parity contract, over the scenario's whole figure set,
    and each analysis in :data:`_GROUPED_VS_LOOP` against its loop over
    the whole dataset and over its latest snapshot."""
    base, row = run.result.dataset, run.row_result().dataset
    check.that(
        type(base) is Dataset, "base dataset must be the column-store one"
    )
    check.that(
        isinstance(row, RowDataset), "row variant must be a RowDataset"
    )
    check.equal(len(row), len(base), "record count")
    check.equal(row.snapshots(), base.snapshots(), "snapshot list")
    check.equal(row.publishers(), base.publishers(), "publisher set")
    check.close(
        row.total_view_hours(), base.total_view_hours(), "total view-hours"
    )
    check.dicts_close(
        row.publisher_view_hours(),
        base.publisher_view_hours(),
        "publisher view-hours",
    )
    for figure_id in run.spec.figures():
        check.rows_equal(
            run.figure_rows(figure_id, "row"),
            run.figure_rows(figure_id),
            f"figure {figure_id}",
            rel=1e-9,
        )
    for label, view in (("dataset", base), ("latest snapshot", base.latest())):
        for name, grouped, loop in _GROUPED_VS_LOOP:
            check.equal(
                _outcome(grouped, view),
                _outcome(loop, view),
                f"{name} over the {label}: column group-by vs record loop",
            )
    return (
        f"{len(run.spec.figures())} figures + 5 aggregations agree "
        f"across dispatch paths; {len(_GROUPED_VS_LOOP)} analyses equal "
        "their record loops"
    )


@oracle(
    "differential",
    "serial-vs-parallel",
    "jobs=N synthesis is byte-identical to the serial build",
)
def serial_vs_parallel(run: ScenarioRun, check: Check) -> str:
    """The PR 4 determinism contract: same bytes, same figure rows."""
    check.that(
        run.dataset_bytes("parallel") == run.dataset_bytes("base"),
        f"jobs={PARALLEL_JOBS} build serializes to different bytes than "
        "the serial build",
    )
    for figure_id in run.spec.figures():
        check.rows_equal(
            run.figure_rows(figure_id, "parallel"),
            run.figure_rows(figure_id),
            f"figure {figure_id}",
        )
    return (
        f"serial and jobs={PARALLEL_JOBS} builds are byte-identical "
        f"({len(run.dataset_bytes('base'))} bytes, "
        f"{len(run.spec.figures())} figures)"
    )


@oracle(
    "differential",
    "strict-vs-repair-clean",
    "on clean input every error policy folds the same records",
)
def strict_vs_repair_clean(run: ScenarioRun, check: Check) -> str:
    """A lenient policy must be invisible when nothing is wrong."""
    records = run.clean_records[:_CLEAN_REPLAY_LIMIT]
    check.that(len(records) > 0, "scenario produced no replayable records")
    folded = {}
    reports = {}
    for policy in ErrorPolicy:
        events = events_from_records(records)
        report = IngestPipeline(policy).run(events)
        folded[policy] = report.records
        reports[policy] = report
    strict = folded[ErrorPolicy.STRICT]
    check.that(len(strict) > 0, "strict ingest folded no records")
    for policy in (ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR):
        check.equal(
            len(folded[policy]), len(strict), f"{policy.value} record count"
        )
        check.that(
            folded[policy] == strict,
            f"{policy.value} folded different records than strict on "
            "clean input",
        )
        report = reports[policy]
        check.equal(report.quarantined, 0, f"{policy.value} quarantined")
        check.equal(report.repaired, 0, f"{policy.value} repaired")
        check.equal(report.deduped, 0, f"{policy.value} deduped")
        check.equal(report.reaped, 0, f"{policy.value} reaped")
    return (
        f"{len(strict)} records from {len(records)} clean sessions fold "
        "identically under strict/quarantine/repair"
    )


@oracle(
    "differential",
    "save-load-roundtrip",
    "save -> load(limit=None) is the identity, gzipped or not",
)
def save_load_roundtrip(run: ScenarioRun, check: Check) -> str:
    dataset = run.result.dataset
    with tempfile.TemporaryDirectory(prefix="repro-testkit-") as tmp:
        for suffix in (".jsonl", ".jsonl.gz"):
            path = Path(tmp) / f"dataset{suffix}"
            dataset.save(path)
            loaded = Dataset.load(path, limit=None)
            check.equal(
                len(loaded), len(dataset), f"{suffix} loaded record count"
            )
            check.that(
                loaded.records == dataset.records,
                f"{suffix} round-trip changed at least one record",
            )
        # A limited load must be an exact prefix, not a resampling.
        half = max(1, len(dataset) // 2)
        partial = Dataset.load(Path(tmp) / "dataset.jsonl", limit=half)
        check.that(
            partial.records == dataset.records[:half],
            f"load(limit={half}) is not the first {half} records",
        )
    return (
        f"{len(dataset)} records round-trip bit-exact through .jsonl "
        "and .jsonl.gz, and limited loads are exact prefixes"
    )


def _sample_ladders(
    run: ScenarioRun, limit: int = _LADDER_SAMPLE
) -> List[BitrateLadder]:
    """First few distinct ladders observed in the scenario's dataset."""
    seen = run.result.dataset.entries("bitrate_ladder_kbps").values
    return [BitrateLadder.from_bitrates(b) for b in seen[:limit]]


@oracle(
    "differential",
    "manifest-roundtrip",
    "emit -> detect -> parse agree for all five protocols",
)
def manifest_roundtrip(run: ScenarioRun, check: Check) -> str:
    """Table 1 as a closed loop, using ladders the scenario generated."""
    ladders = _sample_ladders(run)
    check.that(len(ladders) > 0, "scenario dataset carries no ladders")
    video = Video(
        video_id="vid_testkit_rt",
        duration_seconds=600.0,
        content_type=ContentType.VOD,
    )
    base_url = "http://cdn-a.example.net"
    for protocol in HTTP_ADAPTIVE_PROTOCOLS:
        writer = manifest_writer_for(protocol)
        parser = parser_for(protocol)
        check.equal(
            detect_protocol(writer.manifest_url(video, base_url)),
            protocol,
            f"{protocol.display_name} manifest URL detection",
        )
        for ladder in ladders:
            info = parser.parse(writer.render(video, ladder, base_url))
            check.equal(
                info.protocol, protocol, f"{protocol.display_name} parse"
            )
            check.equal(
                info.video_id,
                video.video_id,
                f"{protocol.display_name} video id",
            )
            check.that(
                len(info.bitrates_kbps) == len(ladder),
                f"{protocol.display_name} lost renditions: "
                f"{len(info.bitrates_kbps)} != {len(ladder)}",
            )
            for parsed, original in zip(
                info.bitrates_kbps, ladder.bitrates_kbps
            ):
                # Writers may legally round to whole kbps (HDS does),
                # so allow up to 1 kbps of quantization.
                check.close(
                    parsed,
                    original,
                    f"{protocol.display_name} bitrate",
                    rel=1e-6,
                    abs_tol=1.0,
                )
    # The paper's two non-manifest protocols detect from URL shape.
    check.equal(
        detect_protocol(
            sample_manifest_url(Protocol.RTMP, video.video_id, "cdn-a")
        ),
        Protocol.RTMP,
        "RTMP scheme detection",
    )
    check.equal(
        detect_protocol(
            sample_manifest_url(Protocol.PROGRESSIVE, video.video_id, "cdn-a")
        ),
        Protocol.PROGRESSIVE,
        "progressive extension detection",
    )
    return (
        f"{len(HTTP_ADAPTIVE_PROTOCOLS)} adaptive protocols round-trip "
        f"{len(ladders)} dataset ladders; RTMP + progressive detect"
    )


@oracle(
    "differential",
    "playback-batch-vs-scalar",
    "lockstep session batches equal the scalar per-chunk loop exactly",
)
def playback_batch_vs_scalar(run: ScenarioRun, check: Check) -> str:
    """The batch kernel over the scenario's own ladders, per ABR family.

    One batch mixes every sampled ladder (twice over) on the congested
    case-study path; each row must equal the scalar reference session
    drawn from an identically seeded generator, and both generators
    must end in the same state.
    """
    ladders = _sample_ladders(run, _PLAYBACK_LADDERS) * 2
    check.that(len(ladders) > 0, "scenario dataset carries no ladders")
    isp, cdn_name = QOE_COMBOS[0]
    path = default_isp_profiles()[isp].path_to(cdn_name)
    config = SessionConfig(view_seconds=300.0, max_buffer_seconds=20.0)
    abrs = (ThroughputAbr(safety=0.85), BufferBasedAbr(), HybridAbr())
    for abr in abrs:
        name = type(abr).__name__
        batch_rng = np.random.default_rng(run.spec.seed)
        scalar_rng = np.random.default_rng(run.spec.seed)
        batch = simulate_sessions(ladders, path, config, batch_rng, abr=abr)
        for ladder, result in zip(ladders, batch):
            check.equal(
                result,
                simulate_session_scalar(
                    ladder, path, config, scalar_rng, abr=abr
                ),
                f"{name} session over {ladder!r}",
            )
        check.equal(
            batch_rng.bit_generator.state,
            scalar_rng.bit_generator.state,
            f"{name} generator state after the batch",
        )
    return (
        f"{len(ladders)}-session batches over {len(ladders) // 2} "
        f"scenario ladders match the scalar loop under {len(abrs)} ABRs"
    )


@oracle(
    "differential",
    "synthesis-vs-scalar",
    "the snapshot sampler equals the per-record reference loop exactly",
)
def synthesis_vs_scalar(run: ScenarioRun, check: Check) -> str:
    """Both samplers over the scenario's plan, snapshot by snapshot.

    The reference shares the plan sampler's construction-time state;
    each snapshot's two generators start from the same spawned stream,
    so the records must be equal and the generators must end in the
    same state.
    """
    config = run.spec.config()
    plan = _build_plan(config)
    reference = ScalarSessionSampler(plan.sampler)
    n_snapshots = len(plan.snapshots)
    streams = spawn_streams(config.seed, n_snapshots + 1)
    total = 0
    for index, snapshot in enumerate(plan.snapshots):
        t = _snapshot_t(index, n_snapshots)
        fast_rng = np.random.default_rng(streams[index])
        scalar_rng = np.random.default_rng(streams[index])
        fast = plan.sampler.snapshot_records(
            snapshot, t, scale=config.records_scale, rng=fast_rng
        )
        scalar = reference.snapshot_records(
            snapshot, t, scale=config.records_scale, rng=scalar_rng
        )
        check.that(len(fast) > 0, f"snapshot {snapshot} has no records")
        check.equal(len(fast), len(scalar), f"snapshot {snapshot} records")
        check.that(
            fast.records() == scalar,
            f"snapshot {snapshot}: the sampler drew different records "
            "than the per-record loop",
        )
        check.equal(
            fast_rng.bit_generator.state,
            scalar_rng.bit_generator.state,
            f"generator state after snapshot {snapshot}",
        )
        total += len(fast)
    return (
        f"{total} records over {n_snapshots} snapshots equal the "
        "per-record loop, generator state included"
    )


@oracle(
    "differential",
    "origin-vs-reference",
    "Fig 18's origin accounting equals the per-rendition reference exactly",
)
def origin_vs_reference(run: ScenarioRun, check: Check) -> str:
    """The case-study origins, built by both servers, on every CDN.

    Savings at each tolerance of the Fig 18 sweep and under integrated
    syndication must be the same floats, not merely close ones.
    """
    case_study = run.result.case_study
    check.that(case_study is not None, "scenario built no case study")
    fast = build_case_origins(case_study)
    reference = build_case_origins(case_study, ReferenceOriginServer)
    check.equal(sorted(fast), sorted(reference), "CDN set")
    for cdn_name, origin in sorted(fast.items()):
        expected = reference[cdn_name]
        for tolerance in SWEEP_TOLERANCES:
            check.equal(
                origin.savings(tolerance),
                expected.savings(tolerance),
                f"CDN {cdn_name} savings at tolerance {tolerance}",
            )
        check.equal(
            origin.integrated_savings(case_study.owner_id),
            expected.integrated_savings(case_study.owner_id),
            f"CDN {cdn_name} integrated savings",
        )
    return (
        f"{len(fast)} case-study origins save the same bytes at "
        f"{len(SWEEP_TOLERANCES)} tolerances and under integration"
    )


@oracle(
    "differential",
    "fault-ingest-replay",
    "fault-injected ingestion is reproducible and fully accounted",
)
def fault_ingest_replay(run: ScenarioRun, check: Check) -> str:
    """The ingest stage under faults: deterministic, accounted, ordered.

    Two independent replays of the same corrupted stream must produce
    identical reports, every input event must be accounted exactly once
    (accepted + deduped + event-level dead letters), and repair must
    never quarantine more than quarantine does.
    """
    if run.spec.ingest is None:
        raise Skip(
            f"scenario {run.spec.name!r} declares no ingest stage"
        )
    injection_a = run.corrupted_events()
    injection_b = run.corrupted_events()
    check.that(
        injection_b.log == injection_a.log, "fault audit log across replays"
    )
    check.that(
        len(injection_a.log) > 0,
        "fault injector applied no faults at "
        f"rate {run.spec.ingest.fault_rate}",
    )
    reports = {}
    for policy in (ErrorPolicy.QUARANTINE, ErrorPolicy.REPAIR):
        report_a = IngestPipeline(policy).run(injection_a.events)
        report_b = IngestPipeline(policy).run(injection_b.events)
        check.that(
            report_a.records == report_b.records,
            f"{policy.value} replay folded different records",
        )
        check.equal(
            report_b.reason_counts(),
            report_a.reason_counts(),
            f"{policy.value} replay reason counts",
        )
        check.equal(
            report_a.accepted
            + report_a.deduped
            + report_a.event_quarantined,
            report_a.total_events,
            f"{policy.value} event accounting",
        )
        reports[policy] = report_a
    check.that(
        reports[ErrorPolicy.REPAIR].quarantined
        <= reports[ErrorPolicy.QUARANTINE].quarantined,
        "repair quarantined more events than quarantine: "
        f"{reports[ErrorPolicy.REPAIR].quarantined} > "
        f"{reports[ErrorPolicy.QUARANTINE].quarantined}",
    )
    quarantine = reports[ErrorPolicy.QUARANTINE]
    return (
        f"{quarantine.total_events} corrupted events replay "
        f"deterministically ({len(injection_a.log)} faults, "
        f"{quarantine.quarantined} quarantined)"
    )


@oracle(
    "differential",
    "chaos-recovery",
    "chaos with recovery is observationally identical to no chaos",
)
def chaos_recovery(run: ScenarioRun, check: Check) -> str:
    """The chaos plane's core promise, as a differential oracle.

    Restricting the scenario's fault plan to its *recoverable* faults
    (duplicates and delayed session starts), ingesting the faulted
    stream, and rebuilding every figure must reproduce the fault-free
    run byte for byte — zero quarantines, zero record drift, zero
    figure-row drift.
    """
    if run.spec.chaos_plan is None:
        raise Skip(f"scenario {run.spec.name!r} declares no chaos plan")
    recovery = run.recovery
    check.that(
        recovery.injection.total_injected > 0,
        "the plan's recoverable projection injected nothing — this "
        "oracle would be vacuous",
    )
    check.equal(recovery.quarantined, 0, "quarantined under recovery")
    check.equal(
        len(recovery.recovered_records),
        len(recovery.clean_records),
        "recovered record count",
    )
    check.that(
        recovery.identical,
        "recovered ingest folded different records than the fault-free "
        "replay",
    )
    figure_ids = sorted(run.spec.figures())
    for figure_id in figure_ids:
        check.rows_equal(
            run.figure_rows(figure_id, "recovered"),
            run.figure_rows(figure_id, "clean"),
            f"figure {figure_id} under recovered chaos",
        )
    return (
        f"{recovery.injection.total_injected} recoverable faults left "
        f"{len(recovery.clean_records)} records and "
        f"{len(figure_ids)} figures byte-identical"
    )
