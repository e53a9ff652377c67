"""Top-level ecosystem generator.

``EcosystemGenerator(config).generate()`` produces an
:class:`EcosystemResult`: the telemetry dataset (the Conviva-data
substitute) plus the ground-truth side information the §5/§6 analyses
legitimately had access to in the paper (catalogue sizes per publisher,
the syndication case-study definition, which publishers drive DASH).

Snapshot synthesis is embarrassingly parallel: every snapshot draws
from its own RNG stream, spawned from the seed by
:func:`repro.parallel.spawn_streams`, and the sampler carries no
per-snapshot state from one batch to the next.  Every build sends its
snapshots through :func:`repro.parallel.parallel_map`, which runs them
in-process at ``jobs=1`` and on a process pool otherwise; because each
stream is independent of execution order, a parallel build is
byte-identical to the serial one (the determinism suite asserts
equality of the saved JSONL and of every figure's rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from functools import lru_cache, partial
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.parallel import parallel_map, parse_jobs, spawn_streams
from repro.constants import Protocol
from repro.entities.device import default_registry
from repro.entities.publisher import Publisher
from repro.synthesis import calibration as cal
from repro.synthesis.population import generate_publishers
from repro.synthesis.portfolios import PortfolioAssigner
from repro.synthesis.sessions import SessionSampler
from repro.synthesis.syndication import (
    CaseStudy,
    assign_case_study,
    build_syndication_graph,
    invert_graph,
)
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord
from repro.telemetry.snapshots import SnapshotSchedule, default_schedule


@dataclass
class EcosystemResult:
    """One synthetic dataset build plus its ground truth."""

    dataset: Dataset
    publishers: Tuple[Publisher, ...]
    schedule: SnapshotSchedule
    snapshots: Tuple[date, ...]
    dash_driver_ids: FrozenSet[str]
    top3_ids: FrozenSet[str]
    syndication_graph: Mapping[str, FrozenSet[str]]
    catalogue_sizes: Mapping[str, int]
    case_study: Optional[CaseStudy]
    config: cal.EcosystemConfig

    def __post_init__(self) -> None:
        self._publisher_index: Dict[str, Publisher] = {
            p.publisher_id: p for p in self.publishers
        }

    def publisher(self, publisher_id: str) -> Publisher:
        try:
            return self._publisher_index[publisher_id]
        except KeyError:
            raise KeyError(f"unknown publisher {publisher_id!r}") from None


@dataclass
class _SynthesisPlan:
    """The deterministic pre-snapshot state of one build.

    Everything here is a pure function of the config (all RNG the plan
    consumes comes from ``default_rng(config.seed)`` in a fixed order),
    so parallel workers rebuild it bit-for-bit from the config alone.
    """

    publishers: List[Publisher]
    sampler: SessionSampler
    schedule: SnapshotSchedule
    snapshots: Tuple[date, ...]
    dash_driver_ids: FrozenSet[str]
    top3_ids: FrozenSet[str]
    syndication_graph: Mapping[str, FrozenSet[str]]
    case_study: Optional[CaseStudy]


def _build_plan(config: cal.EcosystemConfig) -> _SynthesisPlan:
    """Consume the seed-stream prefix: population, portfolios, graph."""
    rng = np.random.default_rng(config.seed)
    registry = default_registry()
    with obs.span("synthesis.population"):
        publishers = generate_publishers(rng, config.n_publishers)
    obs.gauge("synthesis.publishers").set(len(publishers))
    assigner = PortfolioAssigner(rng, publishers, registry)

    ranked = sorted(
        publishers, key=lambda p: p.daily_view_hours, reverse=True
    )
    top3_ids = frozenset(p.publisher_id for p in ranked[:3])
    dash_drivers = frozenset(
        p.publisher_id for p in ranked[: config.dash_driver_count]
    )
    for publisher_id in dash_drivers:
        # The drivers adopted DASH early and, per Fig 3b's right-most
        # bar, the biggest publishers consolidated onto two protocols
        # (HLS + DASH) by the latest snapshot.
        assigner.force_protocol(publisher_id, Protocol.DASH, 0.05)
        assigner.force_protocol(publisher_id, Protocol.MSS, 0.99)
        assigner.force_protocol(publisher_id, Protocol.HDS, 0.99)

    graph = build_syndication_graph(rng, publishers)
    case_study: Optional[CaseStudy] = None
    if config.include_case_study:
        case_study = assign_case_study(rng, publishers, graph)
        # Every participant stores the catalogue on the common CDNs
        # (Fig 18), so their QoE views on A/B are self-consistent.
        for label in ("O",) + case_study.syndicator_labels:
            assigner.ensure_cdns(
                case_study.publisher_id(label),
                cal.STORAGE_STUDY_COMMON_CDNS,
            )
    syndicator_owners = invert_graph(graph)

    sampler = SessionSampler(
        rng=rng,
        publishers=publishers,
        assigner=assigner,
        registry=registry,
        dash_driver_ids=dash_drivers,
        top3_ids=top3_ids,
        syndicator_owners=syndicator_owners,
        case_study=case_study,
    )

    schedule = default_schedule()
    snapshots = _select_snapshots(config, schedule)
    return _SynthesisPlan(
        publishers=publishers,
        sampler=sampler,
        schedule=schedule,
        snapshots=snapshots,
        dash_driver_ids=dash_drivers,
        top3_ids=top3_ids,
        syndication_graph=graph,
        case_study=case_study,
    )


def _select_snapshots(
    config: cal.EcosystemConfig, schedule: SnapshotSchedule
) -> Tuple[date, ...]:
    """Full bi-weekly schedule, or an evenly spaced subset.

    ``snapshot_limit`` thins the schedule for fast test builds; the
    first and last snapshots are always kept because the trend
    analyses anchor on them.
    """
    dates = schedule.dates()
    limit = config.snapshot_limit
    if limit == 0 or limit >= len(dates):
        return tuple(dates)
    positions = np.linspace(0, len(dates) - 1, limit)
    return tuple(dates[int(round(p))] for p in positions)


def _snapshot_t(index: int, n_snapshots: int) -> float:
    last = n_snapshots - 1
    return index / last if last > 0 else 1.0


@lru_cache(maxsize=1)
def _plan_for(config: cal.EcosystemConfig) -> _SynthesisPlan:
    """Per-process plan memo: a pure function of the (frozen) config.

    ``_build_plan`` consumes only ``default_rng(config.seed)`` in a
    fixed order, so memoization is semantically invisible — any
    process rebuilds bit-for-bit from the config alone.  Under the
    ``fork`` start method workers inherit the parent's warm cache;
    under ``spawn`` each worker fills it once.  (A hand-rolled global
    cache here is exactly what repgraph's RPL104 rejects: the analyzer
    cannot prove an ad-hoc mutable global safe, but an ``lru_cache``
    over a pure builder it can.)
    """
    return _build_plan(config)


def _snapshot_batch(
    config: cal.EcosystemConfig,
    item: Tuple[int, np.random.SeedSequence],
) -> List[ViewRecord]:
    """Worker entry point: all records of one snapshot.

    ``item`` is the snapshot's index and its own seed stream.
    """
    index, stream = item
    plan = _plan_for(config)
    snapshot = plan.snapshots[index]
    with obs.span("synthesis.snapshot", snapshot=snapshot.isoformat()) as span:
        batch = plan.sampler.snapshot_records(
            snapshot,
            _snapshot_t(index, len(plan.snapshots)),
            scale=config.records_scale,
            rng=np.random.default_rng(stream),
        )
        span.set(records=len(batch))
    return batch


class EcosystemGenerator:
    """Builds a deterministic synthetic video ecosystem."""

    def __init__(
        self, config: Optional[cal.EcosystemConfig] = None
    ) -> None:
        self.config = config or cal.DEFAULT_CONFIG
        cal.validate_calibration()

    def generate(self, jobs: int = 1) -> EcosystemResult:
        """Generate the dataset and ground truth for this config.

        ``jobs`` > 1 synthesizes snapshots on a process pool; the
        output is byte-identical to the serial build.  ``jobs`` goes
        through :func:`~repro.parallel.parse_jobs`, so a bad count
        raises :class:`~repro.errors.ParallelError`.
        """
        jobs = parse_jobs(jobs)
        with obs.span(
            "synthesis.generate", seed=self.config.seed, jobs=jobs
        ) as span:
            result = self._generate(jobs)
            span.set(
                records=len(result.dataset),
                snapshots=len(result.snapshots),
                publishers=len(result.publishers),
            )
        return result

    def _generate(self, jobs: int = 1) -> EcosystemResult:
        config = self.config
        # The parent always builds fresh (each build re-emits the
        # synthesis.* spans) and leaves the memo warm for the pool.
        _plan_for.cache_clear()
        plan = _plan_for(config)
        snapshots = plan.snapshots
        # One stream per snapshot, plus the last for the §6 case study.
        streams = spawn_streams(config.seed, len(snapshots) + 1)
        obs.gauge("synthesis.workers").set(jobs)

        record_counter = obs.counter("synthesis.records")
        snapshot_counter = obs.counter("synthesis.snapshots")
        records: List[ViewRecord] = []
        # ``plan`` above already warmed the per-process memo, so forked
        # workers inherit it and skip the rebuild entirely.
        batches = parallel_map(
            partial(_snapshot_batch, config),
            list(enumerate(streams[: len(snapshots)])),
            jobs=jobs,
        )
        for batch in batches:
            record_counter.inc(len(batch))
            snapshot_counter.inc()
            records.extend(batch)

        if plan.case_study is not None:
            with obs.span("synthesis.case_study") as span:
                batch = plan.sampler.case_study_records(
                    snapshots[-1],
                    config.qoe_sessions,
                    rng=np.random.default_rng(streams[-1]),
                )
                span.set(records=len(batch))
            record_counter.inc(len(batch))
            records.extend(batch)

        return EcosystemResult(
            dataset=Dataset(records),
            publishers=tuple(plan.publishers),
            schedule=plan.schedule,
            snapshots=tuple(snapshots),
            dash_driver_ids=plan.dash_driver_ids,
            top3_ids=plan.top3_ids,
            syndication_graph=plan.syndication_graph,
            catalogue_sizes={
                p.publisher_id: p.catalogue_size for p in plan.publishers
            },
            case_study=plan.case_study,
            config=config,
        )


def generate_default_dataset(
    seed: int = 2018, snapshot_limit: int = 0, jobs: int = 1
) -> EcosystemResult:
    """Convenience wrapper used by examples, tests and benches."""
    config = cal.EcosystemConfig(seed=seed, snapshot_limit=snapshot_limit)
    return EcosystemGenerator(config).generate(jobs=jobs)
