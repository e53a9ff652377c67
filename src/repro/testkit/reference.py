"""Straightforward references that the vectorized kernels are checked against.

:func:`repro.playback.session.simulate_sessions` advances a whole batch
of sessions one chunk at a time with numpy, and
:meth:`repro.delivery.network.NetworkPath.sample_chunk_throughputs`
draws its congestion uniforms in blocks.  Both promise bit-identical
results to the straightforward per-chunk loops kept here: the
``playback-batch-vs-scalar`` oracle and the Hypothesis differential
suite compare the two exactly, floats and generator state included.

:class:`~repro.synthesis.sessions.SessionSampler` draws each view
record through the cheapest numpy call that consumes the stream the
way the original per-record loop did; :class:`ScalarSessionSampler`
is that loop, and the ``synthesis-vs-scalar`` oracle and the Hypothesis
differential in ``tests/test_synthesis_sampler.py`` compare records and
generator state after every snapshot.  Both take each duration through
:func:`repro.stats.normal.ndtri`, the Cephes port whose bits
``tests/test_stats_normal.py`` holds to ``scipy.special.ndtri``'s;
scipy is not needed at run time.

:class:`~repro.telemetry.dataset.Dataset` slices and aggregates on its
column store; :class:`RowDataset` does the same by scanning records,
and the ``row-vs-columnar`` oracle, the perf parity suite and
``benchmarks/bench_dataset.py`` compare the two.  Five analyses that
once looped over records group columns now: Fig 13's unique SDKs, the
two Fig 14 syndicator counts and the two §4.3 CDN statistics.  Their
record loops are kept here (``unique_sdks_loop`` and the other
``*_loop`` functions), and ``row-vs-columnar`` compares each analysis
with its loop with ``==``.

:class:`~repro.analysis.effects.EffectAnalysis` and
:func:`~repro.analysis.callgraph.build_call_graph` read each scope's
node list, built once when the project is parsed, and the clock-taint
rounds run a program compiled once per scope.
:class:`ReferenceEffectAnalysis` and :func:`reference_call_graph`
re-walk the trees in every pass instead, and the analysis suite's
differential test requires equal effects, graphs and findings.

:class:`~repro.delivery.origin.OriginServer` keeps one size matrix per
push and groups near-duplicate renditions once per shared ladder;
:class:`ReferenceOriginServer` stores one :class:`StoredRendition` per
(title, rung) and groups each video's renditions on its own.  The
``origin-vs-reference`` oracle and the Hypothesis differential in
``tests/test_delivery_origin.py`` compare every figure with ``==``.
"""

from __future__ import annotations

import ast
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro.analysis.callgraph import (
    MODULE_FN,
    CallGraph,
    _collect,
    _FunctionScope,
    _infer_param_types,
)
from repro.analysis.effects import (
    _JSON_SINKS,
    WALL_CLOCK_CALLS,
    EffectAnalysis,
    Effects,
    _bound_names,
)
from repro.analysis.project import ModuleInfo, Project, normalize_dotted
from repro.constants import (
    ConnectionType,
    ContentType,
    Platform,
    Protocol,
    SyndicationRole,
)
from repro.core.summary import ContentSplitStats
from repro.delivery.network import NetworkPath
from repro.entities.device import Device
from repro.entities.ladder import BitrateLadder
from repro.entities.publisher import Publisher, PublisherProfile
from repro.entities.video import Catalogue
from repro.errors import AnalysisError, DeliveryError
from repro.lint.rules.common import dotted_name
from repro.packaging.manifest.detect import sample_manifest_url
from repro.playback.abr import AbrAlgorithm, AbrState, ThroughputAbr
from repro.playback.session import SessionConfig, SessionResult
from repro.playback.useragent import build_user_agent
from repro.stats.normal import ndtri
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import sample_video_index, video_id_for
from repro.synthesis.population import size_decade
from repro.synthesis.sessions import (
    _PLATFORM_THROUGHPUT_MEDIAN,
    SessionSampler,
)
from repro.telemetry.columnar import (
    ColumnKey,
    ColumnRef,
    Entries,
    check_field,
    check_measure,
)
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord
from repro.units import rendition_bytes


def chunk_throughputs_per_chunk(
    path: NetworkPath,
    session_mean_kbps: float,
    n_chunks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-chunk throughputs with one ``rng.uniform()`` call per draw."""
    if not math.isfinite(session_mean_kbps) or session_mean_kbps <= 0:
        raise DeliveryError("session mean must be positive and finite")
    if n_chunks < 1:
        raise DeliveryError("need at least one chunk")
    if path.within_session_cv == 0:
        throughputs = np.full(n_chunks, float(session_mean_kbps))
    else:
        sigma = np.sqrt(np.log(1.0 + path.within_session_cv**2))
        mu = np.log(session_mean_kbps) - sigma**2 / 2.0
        throughputs = np.exp(rng.normal(mu, sigma, size=n_chunks))
    if path.outage_prob > 0:
        congested = np.zeros(n_chunks, dtype=bool)
        exit_prob = 1.0 / path.outage_mean_chunks
        in_episode = False
        for i in range(n_chunks):
            if in_episode:
                congested[i] = True
                if rng.uniform() < exit_prob:
                    in_episode = False
            elif rng.uniform() < path.outage_prob:
                congested[i] = True
                in_episode = rng.uniform() >= exit_prob
        throughputs = np.where(
            congested, throughputs * path.outage_factor, throughputs
        )
    return throughputs


def simulate_session_scalar(
    ladder: BitrateLadder,
    path: NetworkPath,
    config: SessionConfig,
    rng: np.random.Generator,
    abr: Optional[AbrAlgorithm] = None,
    session_mean_kbps: Optional[float] = None,
) -> SessionResult:
    """One view, chunk by chunk, through :meth:`AbrAlgorithm.choose`."""
    abr = abr or ThroughputAbr()
    n_chunks = int(math.ceil(config.view_seconds / config.chunk_seconds))
    mean_kbps = (
        session_mean_kbps
        if session_mean_kbps is not None
        else path.sample_session_mean(rng)
    )
    throughputs = chunk_throughputs_per_chunk(path, mean_kbps, n_chunks, rng)

    buffer_seconds = 0.0
    rebuffer_seconds = 0.0
    startup_delay = 0.0
    played_weighted_kbps = 0.0
    switches = 0
    last_bitrate: Optional[float] = None
    ewma = throughputs[0]
    started = False

    for i in range(n_chunks):
        state = AbrState(
            buffer_seconds=buffer_seconds,
            last_throughput_kbps=float(throughputs[max(i - 1, 0)]),
            ewma_throughput_kbps=float(ewma),
        )
        rendition = abr.choose(ladder, state)
        if last_bitrate is not None and rendition.bitrate_kbps != last_bitrate:
            switches += 1
        last_bitrate = rendition.bitrate_kbps

        chunk_play_seconds = min(
            config.chunk_seconds,
            config.view_seconds - i * config.chunk_seconds,
        )
        download_seconds = (
            rendition.bitrate_kbps * config.chunk_seconds / throughputs[i]
        )
        if not started:
            startup_delay += download_seconds
            buffer_seconds += config.chunk_seconds
            if i + 1 >= config.startup_chunks:
                started = True
        else:
            if download_seconds > buffer_seconds:
                rebuffer_seconds += download_seconds - buffer_seconds
                buffer_seconds = 0.0
            else:
                buffer_seconds -= download_seconds
            buffer_seconds = min(
                buffer_seconds + config.chunk_seconds,
                config.max_buffer_seconds,
            )
        played_weighted_kbps += rendition.bitrate_kbps * chunk_play_seconds
        ewma = (
            config.ewma_alpha * throughputs[i]
            + (1 - config.ewma_alpha) * ewma
        )

    played_seconds = config.view_seconds
    total = played_seconds + rebuffer_seconds
    return SessionResult(
        average_bitrate_kbps=float(played_weighted_kbps / played_seconds),
        rebuffer_ratio=float(rebuffer_seconds / total),
        rebuffer_seconds=float(rebuffer_seconds),
        startup_delay_seconds=float(startup_delay),
        played_seconds=played_seconds,
        chunk_count=n_chunks,
        switches=switches,
    )


#: The construction-time state a reference sampler shares with the
#: sampler it is built from.
_SAMPLER_STATE = (
    "_publishers",
    "_assigner",
    "_registry",
    "_dash_drivers",
    "_top3",
    "_syndicator_owners",
    "_case_study",
    "_ladders",
    "_live_share",
)


@dataclass(frozen=True)
class _Slot:
    """One record of the reference walk before its attribute draws."""

    platform: Platform
    protocol: Protocol
    device: Device
    content_type: ContentType
    view_hours: float
    stratum: int


class ScalarSessionSampler(SessionSampler):
    """The per-record reference for :class:`SessionSampler`'s record loop.

    A publisher's snapshot is drawn in the sampler's order: the cell
    walk lays out one slot per record, popping duration strata; then
    each attribute is drawn slot by slot, one scalar call per slot,
    through the numpy call the loop was first written with (``choice``
    with and without ``p``, ``uniform``, ``normal``, ``beta``,
    ``integers``, ``permutation``; the Zipf title through
    :func:`~repro.synthesis.catalogues.sample_video_index`), and every
    table but the title cdfs is rebuilt per slot.  Built from a
    sampler, it shares that sampler's construction-time state
    (publishers, portfolios, ladders, live shares) and inherits its
    weight helpers, so both must draw the same records from the same
    snapshot stream and leave it in the same state.  ``geo`` goes
    through ``str()``, as ``choice`` returns a numpy string.
    """

    def __init__(self, sampler: SessionSampler) -> None:
        for name in _SAMPLER_STATE:
            setattr(self, name, getattr(sampler, name))
        self._sdk_cursor: Dict[Tuple[str, str], int] = {}
        self._sdk_versions: Dict[Tuple[str, str], List[str]] = {}
        self._duration_strata_pool: Dict[
            Tuple[str, Platform, str], List[int]
        ] = {}
        self._title_cdfs: Dict[int, List[float]] = {}

    def snapshot_records(
        self,
        snapshot: date,
        t: float,
        scale: float = 1.0,
        *,
        rng: np.random.Generator,
    ) -> List[ViewRecord]:
        self._rng = rng
        self._sdk_cursor.clear()
        self._duration_strata_pool.clear()
        records: List[ViewRecord] = []
        for publisher_id in sorted(self._publishers):
            records.extend(
                self._publisher_records(publisher_id, snapshot, t, scale)
            )
        return records

    def _publisher_records(
        self, publisher_id: str, snapshot: date, t: float, scale: float
    ) -> List[ViewRecord]:
        publisher = self._publishers[publisher_id]
        profile = self._assigner.profile_at(publisher_id, t)
        window_vh = publisher.daily_view_hours * 2.0 * scale
        platform_weights = self._platform_weights(publisher_id, profile, t)
        protocol_weights = self._protocol_weights(publisher_id, profile, t)
        slots: List[_Slot] = []
        for platform, w_platform in platform_weights.items():
            for protocol, w_protocol in protocol_weights.items():
                if not self._compatible(platform, protocol):
                    continue
                cell_vh = window_vh * w_platform * w_protocol
                if cell_vh <= 0:
                    continue
                slots.extend(
                    self._cell_slots(
                        publisher, profile, platform, protocol, cell_vh, t
                    )
                )
        return self._draw_records(publisher, profile, slots, snapshot, t)

    def _cell_slots(
        self,
        publisher: Publisher,
        profile: PublisherProfile,
        platform: Platform,
        protocol: Protocol,
        cell_vh: float,
        t: float,
    ) -> List[_Slot]:
        # Allocate the cell's view-hours to device families by the
        # calibrated family weights, then spread each family's share
        # over a rotating sample of its device models.  Splitting at
        # the family level keeps Fig 10's shares exact; sampling at the
        # model level keeps the combination metric's device breadth.
        by_family: Dict[str, List[Device]] = {}
        for device in self._eligible_devices(profile, platform):
            by_family.setdefault(device.family, []).append(device)
        if not by_family:
            return []
        family_weights = self._family_weight_map(platform, t)
        weights = {
            family: family_weights.get(family, 0.05)
            for family in sorted(by_family)
        }
        total_weight = sum(weights.values())
        decade = size_decade(publisher.daily_view_hours)
        per_family = cal.DEVICES_PER_CELL_BY_DECADE[decade]
        devices: List[Device] = []
        device_share: List[float] = []
        for family in sorted(by_family):
            models = by_family[family]
            take = min(per_family, len(models))
            picked = self._rng.choice(len(models), size=take, replace=False)
            family_share = weights[family] / total_weight
            for i in picked:
                devices.append(models[int(i)])
                device_share.append(family_share / take)
        slots: List[_Slot] = []
        for device, share in zip(devices, device_share):
            for content_type, ct_share in self._content_split(publisher):
                if not self._cdn_names(profile, content_type):
                    continue
                vh = cell_vh * float(share) * ct_share
                # Split heavy cells into several duration draws: the
                # views-weighted duration CDF (Fig 8) is a
                # self-normalized estimator whose bias shrinks with the
                # effective number of draws behind the big publishers.
                splits = min(max(int(round(vh / 3e5)), 1), 6)
                for _ in range(splits):
                    stratum = self._next_stratum(
                        publisher.publisher_id, platform, device.family
                    )
                    slots.append(
                        _Slot(
                            platform,
                            protocol,
                            device,
                            content_type,
                            vh / splits,
                            stratum,
                        )
                    )
        return slots

    def _draw_records(
        self,
        publisher: Publisher,
        profile: PublisherProfile,
        slots: Sequence[_Slot],
        snapshot: date,
        t: float,
    ) -> List[ViewRecord]:
        """Each attribute over all slots, then one record per slot."""
        rng = self._rng
        durations = [
            self._duration(slot, float(rng.uniform())) for slot in slots
        ]
        firsts = [
            self._first_cdn(profile, slot.content_type, t) for slot in slots
        ]
        multi = [float(rng.uniform()) for _ in slots]
        cdns: List[Tuple[str, ...]] = []
        for slot, first, u in zip(slots, firsts, multi):
            names = self._cdn_names(profile, slot.content_type)
            # A small fraction of views download chunks from two CDNs (§3).
            if len(names) > 1 and u < 0.06:
                others = [n for n in names if n != first]
                cdns.append((first, others[int(rng.integers(len(others)))]))
            else:
                cdns.append((first,))
        videos = self._pick_videos(publisher, len(slots))
        majors = [
            55 + int(rng.integers(0, 30))
            for slot in slots
            if slot.platform is Platform.BROWSER
        ]
        throughputs = [
            float(
                np.exp(
                    rng.normal(
                        np.log(_PLATFORM_THROUGHPUT_MEDIAN[slot.platform]),
                        0.6,
                    )
                )
            )
            for slot in slots
        ]
        factors = [float(rng.uniform(0.72, 0.95)) for _ in slots]
        rebuffers = [float(rng.beta(1.2, 60.0)) for _ in slots]
        isps = [f"isp_{int(rng.integers(0, 12)):02d}" for _ in slots]
        geos = [
            str(rng.choice(("CA", "NY", "TX", "UK", "DE", "IN", "BR")))
            for _ in slots
        ]
        connections = [
            ConnectionType(
                rng.choice(("wifi", "4g", "wired"), p=(0.55, 0.25, 0.20))
            )
            for _ in slots
        ]
        ladder = self._ladders[publisher.publisher_id]
        browser_majors = iter(majors)
        records: List[ViewRecord] = []
        for i, slot in enumerate(slots):
            device = slot.device
            video_id, is_syndicated, owner_id = videos[i]
            user_agent = None
            sdk_name = None
            sdk_version = None
            if slot.platform is Platform.BROWSER:
                browser = device.model.split("-")[0]
                user_agent = build_user_agent(
                    browser, major_version=next(browser_majors)
                )
            else:
                sdk_name = device.sdk_name
                sdk_version = self._next_sdk_version(
                    publisher.publisher_id, profile, sdk_name
                )
            # weight x duration == the slot's exact view-hours, so every
            # share analysis sees the calibrated splits without sampling
            # noise; the tilted draw (see _duration) keeps the
            # views-weighted duration distribution on target.
            records.append(
                ViewRecord(
                    snapshot=snapshot,
                    publisher_id=publisher.publisher_id,
                    url=sample_manifest_url(
                        slot.protocol,
                        video_id,
                        f"{cdns[i][0].lower()}.cdn.example.net",
                    ),
                    device_model=device.model,
                    os_name=device.os_name,
                    cdn_names=cdns[i],
                    bitrate_ladder_kbps=ladder.bitrates_kbps,
                    view_duration_hours=durations[i],
                    avg_bitrate_kbps=min(
                        ladder.max_bitrate_kbps, throughputs[i]
                    )
                    * factors[i],
                    rebuffer_ratio=rebuffers[i],
                    content_type=slot.content_type,
                    video_id=video_id,
                    weight=float(slot.view_hours / durations[i]),
                    user_agent=user_agent,
                    sdk_name=sdk_name,
                    sdk_version=sdk_version,
                    is_syndicated=is_syndicated,
                    owner_id=owner_id,
                    isp=isps[i],
                    geo=geos[i],
                    connection=connections[i],
                )
            )
        return records

    #: Number of strata for duration sampling (see below).
    _DURATION_STRATA = 8

    def _next_stratum(
        self, publisher_id: str, platform: Platform, family: str
    ) -> int:
        """The next duration stratum of a (publisher, platform, family).

        Draws cycle through shuffled quantile strata, which tempers the
        view-count noise of families with few records (Fig 6c).
        """
        key = (publisher_id, platform, family)
        pool = self._duration_strata_pool.get(key)
        if not pool:
            # Refill with a shuffled permutation: consecutive K draws
            # cover every stratum, but in random order, so strata never
            # align with the deterministic record-generation order.
            pool = list(
                self._rng.permutation(self._DURATION_STRATA)
            )
            self._duration_strata_pool[key] = pool
        return int(pool.pop())

    def _duration(self, slot: _Slot, u: float) -> float:
        """Length-biased lognormal duration inside the slot's stratum.

        Records carry ``weight = view_hours / duration`` so that the
        calibrated view-hour splits are *exact*.  Weighting by 1/d
        tilts the observed duration distribution by a factor 1/d, so
        the draw itself is taken from the length-biased lognormal
        (median scaled by e^(sigma^2)); after 1/d weighting the
        views-weighted duration distribution is exactly the target
        lognormal of Fig 8.
        """
        median, sigma = cal.VIEW_DURATION_LOGNORMAL[slot.platform]
        u = (slot.stratum + u) / self._DURATION_STRATA
        u = min(max(u, 1e-9), 1.0 - 1e-9)
        tilted_log_median = np.log(median) + sigma**2
        return float(np.exp(tilted_log_median + sigma * ndtri(u)))

    @staticmethod
    def _cdn_names(
        profile: PublisherProfile, content_type: ContentType
    ) -> List[str]:
        return [
            a.cdn.name
            for a in profile.cdn_assignments
            if a.serves(content_type)
        ]

    def _first_cdn(
        self, profile: PublisherProfile, content_type: ContentType, t: float
    ) -> str:
        names = self._cdn_names(profile, content_type)
        weights = np.array(
            [
                cal.CDN_WEIGHT[name].level(t)
                if name in cal.CDN_WEIGHT
                else cal.CDN_WEIGHT["OTHER"].level(t)
                for name in names
            ]
        )
        probs = weights / weights.sum()
        return str(self._rng.choice(names, p=probs))

    def _pick_videos(
        self, publisher: Publisher, n: int
    ) -> List[Tuple[str, bool, Optional[str]]]:
        """Syndicated tests, then owners, then titles, slot by slot."""
        owners = self._syndicator_owners.get(publisher.publisher_id, ())
        syndicated = [
            bool(owners) and self._rng.uniform() < cal.SYNDICATED_VIEW_SHARE
            for _ in range(n)
        ]
        picked_owners = [
            owners[int(self._rng.integers(len(owners)))]
            for flag in syndicated
            if flag
        ]
        # Owned content carries the owned/syndicated flag of §6: owner-
        # role publishers reference themselves, so owners whose content
        # is never syndicated still appear in the Fig 14 population.
        owner_ref = (
            publisher.publisher_id
            if publisher.role is SyndicationRole.OWNER
            else None
        )
        owner_iter = iter(picked_owners)
        videos: List[Tuple[str, bool, Optional[str]]] = []
        for flag in syndicated:
            if flag:
                owner_id = next(owner_iter)
                index = sample_video_index(
                    self._rng,
                    self._title_cdf(self._publishers[owner_id].catalogue_size),
                )
                videos.append((video_id_for(owner_id, index), True, owner_id))
            else:
                index = sample_video_index(
                    self._rng, self._title_cdf(publisher.catalogue_size)
                )
                videos.append(
                    (
                        video_id_for(publisher.publisher_id, index),
                        False,
                        owner_ref,
                    )
                )
        return videos

    def _next_sdk_version(
        self, publisher_id: str, profile: PublisherProfile, sdk_name: str
    ) -> str:
        """Round-robin through the publisher's versions of one SDK.

        Cycling guarantees that, given enough records, every maintained
        version shows up in telemetry — which is what lets the Fig 13c
        unique-SDKs metric be measured from the dataset.
        """
        key = (publisher_id, sdk_name)
        versions = self._sdk_versions.get(key)
        if versions is None:
            versions = sorted(
                sdk.version
                for sdk in self._assigner.profile_at(publisher_id, 1.0).sdks
                if sdk.name == sdk_name
            )
            if not versions:
                versions = ["1.0"]
            self._sdk_versions[key] = versions
        cursor = self._sdk_cursor.get(key, 0)
        self._sdk_cursor[key] = cursor + 1
        return versions[cursor % len(versions)]


class RowDataset(Dataset):
    """The row-at-a-time reference for :class:`Dataset`.

    Every slice is a new ``RowDataset`` of the matching records, and
    every aggregation is a Python loop over them; nothing is memoized
    and the column store is never read.  A derived column classifies
    each record by following its chain of sources, and splits a record
    with k values into k shares of 1/k, as the store does.  Column
    names and measures go through the store's own checks.
    """

    def snapshots(self) -> List[date]:
        return sorted({r.snapshot for r in self.records})

    def where(self, field: str, value: object) -> "RowDataset":
        check_field(field)
        return RowDataset(
            r for r in self.records if getattr(r, field) == value
        )

    def filter(self, predicate: Callable[[ViewRecord], bool]) -> "RowDataset":
        return RowDataset(r for r in self.records if predicate(r))

    def exclude_publishers(self, publisher_ids: Iterable[str]) -> "RowDataset":
        excluded = frozenset(publisher_ids)
        return self.filter(lambda r: r.publisher_id not in excluded)

    def publishers(self) -> Set[str]:
        return {r.publisher_id for r in self.records}

    def distinct_video_ids(self) -> int:
        return len({r.video_id for r in self.records})

    def publishers_per_value(self, key: ColumnRef) -> Dict[object, int]:
        _check_column(key)
        sets: Dict[object, Set[str]] = {}
        for record in self.records:
            for value in _row_values(key, record):
                sets.setdefault(value, set()).add(record.publisher_id)
        return {value: len(pubs) for value, pubs in sets.items()}

    def values_per_publisher(self, key: ColumnRef) -> Dict[str, int]:
        _check_column(key)
        sets: Dict[str, Set[object]] = {}
        for record in self.records:
            for value in _row_values(key, record):
                sets.setdefault(record.publisher_id, set()).add(value)
        return {pub: len(values) for pub, values in sets.items()}

    def entries(self, key: ColumnRef) -> Entries:
        _check_column(key)
        lookup: Dict[object, int] = {}
        rows: List[int] = []
        codes: List[int] = []
        shares: List[float] = []
        for row, record in enumerate(self.records):
            values = _row_values(key, record)
            for value in values:
                rows.append(row)
                codes.append(lookup.setdefault(value, len(lookup)))
                shares.append(1.0 / len(values))
        return Entries(
            np.array(rows, dtype=np.int64),
            np.array(codes, dtype=np.int64),
            tuple(lookup),
            np.array(shares, dtype=np.float64),
        )

    def measure(self, name: str) -> np.ndarray:
        check_measure(name)
        return np.array(
            [getattr(r, name) for r in self.records], dtype=np.float64
        )

    # _total and the field-key loop in _grouped keep the row path's
    # original per-record cost (for a field: a lambda and two getattrs):
    # bench_dataset.py's speedup floors and first-call ceiling are
    # calibrated against it.

    def _total(self, measure: str) -> float:
        if measure == "view_hours":
            return sum(r.view_hours for r in self.records)
        return sum(r.views for r in self.records)

    def _grouped(self, measure: str, key: ColumnRef) -> Dict[object, float]:
        _check_column(key)
        totals: Dict[object, float] = {}
        if isinstance(key, ColumnKey):
            for record in self.records:
                values = _row_values(key, record)
                for value in values:
                    totals[value] = totals.get(value, 0.0) + getattr(
                        record, measure
                    ) * (1.0 / len(values))
            return totals
        fn = lambda record: getattr(record, key)  # noqa: E731
        for record in self.records:
            value = fn(record)
            if value is None:
                continue
            totals[value] = totals.get(value, 0.0) + getattr(record, measure)
        return totals


def _check_column(key: ColumnRef) -> None:
    """The store's check of the stored field a column reads."""
    while isinstance(key, ColumnKey):
        key = key.source
    check_field(key)


def _row_values(key: ColumnRef, record: ViewRecord) -> Tuple[object, ...]:
    """A column's values for one record, following a derived key's chain
    of sources down to a stored field; a ``None`` field is out of scope."""
    if isinstance(key, ColumnKey):
        return tuple(
            derived
            for value in _row_values(key.source, record)
            for derived in key.fn(value)
        )
    value = getattr(record, key)
    return () if value is None else (value,)


def unique_sdks_loop(dataset: Dataset) -> Dict[str, int]:
    """Fig 13's unique SDKs per publisher, by the record loop
    :func:`~repro.core.complexity.publisher_complexity` ran."""
    sdk_versions: Dict[str, Set[str]] = defaultdict(set)
    browsers: Dict[str, Set[str]] = defaultdict(set)
    for record in dataset:
        if record.sdk_name:
            sdk_versions[record.publisher_id].add(
                f"{record.sdk_name}/{record.sdk_version or '?'}"
            )
        elif record.user_agent:
            browsers[record.publisher_id].add(record.device_model)
    return {
        pid: len(sdk_versions[pid]) + len(browsers[pid])
        for pid in dataset.publishers()
    }


def observed_syndicators_loop(dataset: Dataset) -> Set[str]:
    """:func:`~repro.core.syndication.observed_syndicators` as a loop."""
    return {r.publisher_id for r in dataset if r.is_syndicated}


def syndicator_fraction_per_owner_loop(dataset: Dataset) -> Dict[str, float]:
    """:func:`~repro.core.syndication.syndicator_fraction_per_owner` as a
    loop."""
    syndicators = observed_syndicators_loop(dataset)
    if not syndicators:
        raise AnalysisError("no syndicated views in dataset")
    carriers: Dict[str, Set[str]] = defaultdict(set)
    owners: Set[str] = set()
    for record in dataset:
        if record.owner_id is not None:
            owners.add(record.owner_id)
            if record.is_syndicated:
                carriers[record.owner_id].add(record.publisher_id)
    # Owners also include publishers serving only owned content; those
    # without any owner_id references simply never syndicated.
    return {
        owner: 100.0 * len(carriers.get(owner, set())) / len(syndicators)
        for owner in owners
    }


def top_cdn_concentration_loop(dataset: Dataset, n: int = 5) -> float:
    """:func:`~repro.core.summary.top_cdn_concentration` as a loop."""
    totals: Dict[str, float] = defaultdict(float)
    grand_total = 0.0
    for record in dataset:
        share = record.view_hours / len(record.cdn_names)
        grand_total += record.view_hours
        for cdn in record.cdn_names:
            totals[cdn] += share
    if grand_total <= 0:
        raise AnalysisError("no view-hours in dataset")
    top = sorted(totals.values(), reverse=True)[:n]
    return 100.0 * sum(top) / grand_total


def live_vod_cdn_segregation_loop(dataset: Dataset) -> ContentSplitStats:
    """:func:`~repro.core.summary.live_vod_cdn_segregation` as a loop."""
    cdn_types: Dict[str, Dict[str, Set[ContentType]]] = defaultdict(
        lambda: defaultdict(set)
    )
    for record in dataset:
        for cdn in record.cdn_names:
            cdn_types[record.publisher_id][cdn].add(record.content_type)
    eligible = 0
    vod_only = 0
    live_only = 0
    for publisher, per_cdn in cdn_types.items():
        served: Set[ContentType] = set()
        for types in per_cdn.values():
            served |= types
        if len(per_cdn) < 2 or served != {ContentType.LIVE, ContentType.VOD}:
            continue
        eligible += 1
        if any(types == {ContentType.VOD} for types in per_cdn.values()):
            vod_only += 1
        if any(types == {ContentType.LIVE} for types in per_cdn.values()):
            live_only += 1
    if eligible == 0:
        raise AnalysisError("no multi-CDN live+VoD publishers observed")
    return ContentSplitStats(
        eligible_publishers=eligible,
        pct_with_vod_only_cdn=100.0 * vod_only / eligible,
        pct_with_live_only_cdn=100.0 * live_only / eligible,
    )


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """One scope's nodes, by a FIFO queue popped from the front.

    The walk :func:`repro.analysis.project.scope_nodes` must reproduce:
    same nodes, same order, nested ``def``/``class``/``lambda`` yielded
    but not entered.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def subclasses_by_mro(project: Project, class_qualname: str) -> List[str]:
    """Subclasses found by linearizing every class, per query."""
    return [
        name
        for name in sorted(project.classes)
        if name != class_qualname
        and class_qualname in project.mro(name)[1:]
    ]


def reference_call_graph(project: Project) -> CallGraph:
    """:func:`~repro.analysis.callgraph.build_call_graph`, re-walking
    each scope's tree instead of reading its stored node list."""
    graph = CallGraph()
    for name in sorted(project.modules):
        module = project.modules[name]
        if module.tree is None:
            continue
        scope = _FunctionScope(
            info=None, module=module, qualname=f"{name}.{MODULE_FN}"
        )
        _collect(project, graph, scope, scope_walk(module.tree))
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        scope = _FunctionScope(
            info=info, module=project.modules[info.module], qualname=qualname
        )
        _infer_param_types(project, scope)
        _collect(project, graph, scope, scope_walk(info.node))
    return graph


class ReferenceEffectAnalysis(EffectAnalysis):
    """The re-walking reference for :class:`EffectAnalysis`.

    Every pass walks the scope's tree again: the ``global``/``nonlocal``
    prescan, the effect loop, the local names (once per enclosing
    function of every nested one), and every clock-taint round, which
    also walks and resolves each expression anew.  Local taint is the
    same flow-insensitive rule: assignments repeat until the tainted
    names stop growing, then returns and ``json.dump(s)`` sinks are
    judged.  The per-node recording (``_record_*``) and the summary
    fixpoint are shared.
    """

    def run(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            if module.tree is None:
                continue
            qualname = f"{name}.{MODULE_FN}"
            self.direct[qualname] = self._rewalked_effects(
                module, module.tree, qualname, enclosing_bound=set()
            )
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            bound: Set[str] = set()
            parent = self.project.functions.get(info.parent or "")
            while parent is not None:
                parent_nodes = list(scope_walk(parent.node))
                bound |= _bound_names(parent.node, parent_nodes)
                parent = self.project.functions.get(parent.parent or "")
            self.direct[qualname] = self._rewalked_effects(
                self.project.modules[info.module], info.node, qualname, bound
            )
        self._fixpoint_summaries()
        self._fixpoint_clock_taint()

    def _rewalked_effects(
        self,
        module: ModuleInfo,
        root: ast.AST,
        qualname: str,
        enclosing_bound: Set[str],
    ) -> Effects:
        effects = Effects()
        local = _bound_names(root, list(scope_walk(root)))
        declared_global: Set[str] = set()
        declared_nonlocal: Set[str] = set()
        module_names = (
            set(module.global_names)
            | set(module.mutable_globals)
            | set(module.rng_globals)
        )
        at_module = qualname.endswith(f".{MODULE_FN}")

        def is_module_global(name: str) -> bool:
            if name in declared_global:
                return True
            if at_module:
                return name in module_names
            return name in module_names and name not in local

        def is_capture(name: str) -> bool:
            if name in declared_nonlocal:
                return True
            return (
                name in enclosing_bound
                and name not in local
                and name not in module_names
            )

        for node in scope_walk(root):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                declared_nonlocal.update(node.names)
        for node in scope_walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._record_store(
                        module, qualname, effects, target,
                        is_module_global, is_capture,
                    )
            elif isinstance(node, ast.Call):
                self._record_call(
                    module, qualname, effects, node,
                    is_module_global, is_capture,
                )
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                self._record_rng_use(module, qualname, effects, node, local)
        return effects

    def _fixpoint_clock_taint(self) -> None:
        self.returns_clock = {q: False for q in self.direct}
        sink_sites: Set[Tuple[str, int, str]] = set()
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.direct):
                if qualname.endswith(f".{MODULE_FN}"):
                    module = self.project.modules[qualname.rsplit(".", 1)[0]]
                    root: ast.AST = module.tree
                else:
                    info = self.project.functions[qualname]
                    module = self.project.modules[info.module]
                    root = info.node
                returns, sinks = self._rewalked_taint(module, qualname, root)
                if returns and not self.returns_clock[qualname]:
                    self.returns_clock[qualname] = True
                    changed = True
                if not sinks <= sink_sites:
                    sink_sites |= sinks
                    changed = True
        self.json_sink_sites = sorted(sink_sites)

    def _rewalked_taint(
        self, module: ModuleInfo, qualname: str, root: ast.AST
    ) -> Tuple[bool, Set[Tuple[str, int, str]]]:
        tainted: Set[str] = set()

        def resolved(call: ast.Call) -> Tuple[Optional[str], str]:
            dotted = dotted_name(call.func)
            if dotted is None:
                return None, ""
            return dotted, normalize_dotted(
                self.project.resolve(module, dotted)
            )

        def expr_tainted(node: ast.AST) -> bool:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in tainted:
                        return True
                elif isinstance(sub, ast.Call):
                    dotted, name = resolved(sub)
                    if dotted is None:
                        continue
                    if name in WALL_CLOCK_CALLS or dotted in WALL_CLOCK_CALLS:
                        return True
                    if self.returns_clock.get(name):
                        return True
            return False

        grown = True
        while grown:
            grown = False
            for node in scope_walk(root):
                if not isinstance(
                    node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                ):
                    continue
                if node.value is None or not expr_tainted(node.value):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                before = len(tainted)
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            tainted.add(name_node.id)
                grown = grown or len(tainted) > before
        returns = False
        sinks: Set[Tuple[str, int, str]] = set()
        for node in scope_walk(root):
            if isinstance(node, ast.Return):
                if node.value is not None and expr_tainted(node.value):
                    returns = True
            elif isinstance(node, ast.Call):
                dotted, name = resolved(node)
                if dotted is None:
                    continue
                if name in _JSON_SINKS or dotted in _JSON_SINKS:
                    args = list(node.args) + [kw.value for kw in node.keywords]
                    if any(expr_tainted(a) for a in args):
                        sinks.add((qualname, node.lineno, "json payload"))
        return returns, sinks


@dataclass(frozen=True)
class StoredRendition:
    """One rendition of one video pushed by one publisher."""

    publisher_id: str
    video_id: str
    bitrate_kbps: float
    size_bytes: float

    def __post_init__(self) -> None:
        if self.bitrate_kbps <= 0:
            raise DeliveryError("stored bitrate must be positive")
        if self.size_bytes < 0:
            raise DeliveryError("stored size must be non-negative")


class ReferenceOriginServer:
    """The per-rendition reference for
    :class:`~repro.delivery.origin.OriginServer`.

    Every push checks its keys against a set rebuilt from every stored
    rendition, and every figure regroups the renditions by video and
    sorts each video's own.
    """

    def __init__(self, cdn_name: str) -> None:
        if not cdn_name:
            raise DeliveryError("origin needs a CDN name")
        self.cdn_name = cdn_name
        self._stored: List[StoredRendition] = []

    def push_catalogue(
        self,
        publisher_id: str,
        catalogue: Catalogue,
        ladder: BitrateLadder,
    ) -> float:
        existing = {
            (s.publisher_id, s.video_id, s.bitrate_kbps)
            for s in self._stored
        }
        added = 0.0
        new_items: List[StoredRendition] = []
        for video in catalogue:
            for rendition in ladder:
                key = (publisher_id, video.video_id, rendition.bitrate_kbps)
                if key in existing:
                    raise DeliveryError(
                        f"{publisher_id} already pushed {video.video_id} "
                        f"@ {rendition.bitrate_kbps} kbps to {self.cdn_name}"
                    )
                size = rendition_bytes(
                    rendition.bitrate_kbps, video.duration_seconds
                )
                new_items.append(
                    StoredRendition(
                        publisher_id=publisher_id,
                        video_id=video.video_id,
                        bitrate_kbps=rendition.bitrate_kbps,
                        size_bytes=size,
                    )
                )
                added += size
        self._stored.extend(new_items)
        return added

    @property
    def publishers(self) -> Set[str]:
        return {s.publisher_id for s in self._stored}

    def total_bytes(self) -> float:
        return sum(s.size_bytes for s in self._stored)

    def deduplicated_bytes(self, tolerance: float) -> float:
        if tolerance < 0:
            raise DeliveryError("tolerance must be non-negative")
        kept = 0.0
        for renditions in self._by_video().values():
            kept += _kept_bytes_after_dedup(renditions, tolerance)
        return kept

    def savings(self, tolerance: float) -> Tuple[float, float]:
        total = self.total_bytes()
        if total <= 0:
            raise DeliveryError("origin is empty")
        deduped = self.deduplicated_bytes(tolerance)
        saved = total - deduped
        return saved, 100.0 * saved / total

    def integrated_bytes(self, owner_id: str) -> float:
        kept = 0.0
        for renditions in self._by_video().values():
            owner_copies = [
                s for s in renditions if s.publisher_id == owner_id
            ]
            if owner_copies:
                kept += sum(s.size_bytes for s in owner_copies)
            else:
                kept += _kept_bytes_after_dedup(renditions, 0.0)
        return kept

    def integrated_savings(self, owner_id: str) -> Tuple[float, float]:
        total = self.total_bytes()
        if total <= 0:
            raise DeliveryError("origin is empty")
        kept = self.integrated_bytes(owner_id)
        saved = total - kept
        return saved, 100.0 * saved / total

    def _by_video(self) -> Dict[str, List[StoredRendition]]:
        groups: Dict[str, List[StoredRendition]] = {}
        for stored in self._stored:
            groups.setdefault(stored.video_id, []).append(stored)
        return groups


def _kept_bytes_after_dedup(
    renditions: Sequence[StoredRendition], tolerance: float
) -> float:
    """Greedy near-duplicate grouping for one video's renditions."""
    ordered = sorted(renditions, key=lambda s: s.bitrate_kbps)
    kept = 0.0
    group_rep: Optional[float] = None
    group_max_bytes = 0.0
    for stored in ordered:
        if group_rep is None:
            group_rep = stored.bitrate_kbps
            group_max_bytes = stored.size_bytes
            continue
        gap = abs(stored.bitrate_kbps - group_rep)
        if gap <= tolerance * group_rep:
            group_max_bytes = max(group_max_bytes, stored.size_bytes)
        else:
            kept += group_max_bytes
            group_rep = stored.bitrate_kbps
            group_max_bytes = stored.size_bytes
    if group_rep is not None:
        kept += group_max_bytes
    return kept


__all__ = [
    "ReferenceEffectAnalysis",
    "ReferenceOriginServer",
    "RowDataset",
    "ScalarSessionSampler",
    "StoredRendition",
    "chunk_throughputs_per_chunk",
    "live_vod_cdn_segregation_loop",
    "observed_syndicators_loop",
    "reference_call_graph",
    "scope_walk",
    "simulate_session_scalar",
    "subclasses_by_mro",
    "syndicator_fraction_per_owner_loop",
    "top_cdn_concentration_loop",
    "unique_sdks_loop",
]
