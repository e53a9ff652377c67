"""View-record sampling: turning portfolios into telemetry.

For every publisher and snapshot, the sampler enumerates the
(platform, protocol) cells the publisher's management plane serves,
splits the publisher's two-day view-hours across those cells using the
calibrated time-varying weights, and emits weighted view records with
realistic URLs, devices, SDK versions, CDNs, durations and QoE.

The sequence of draws a snapshot makes from its generator is the
dataset's identity: DESIGN.md §16 lists it, one vector draw per
attribute per publisher, and
``repro.testkit.reference.ScalarSessionSampler`` keeps the plain
per-record loop in the same order that the sampler is checked
against.

The §6 case-study records (Figs 15-17) are generated separately via the
playback simulator so that owner/syndicator QoE differences *emerge*
from their ladder choices rather than being painted on.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    ConnectionType,
    ContentType,
    Platform,
    Protocol,
    SyndicationRole,
)
from repro.delivery.network import default_isp_profiles
from repro.entities.device import Device, DeviceRegistry
from repro.entities.ladder import BitrateLadder
from repro.entities.publisher import Publisher, PublisherProfile
from repro.packaging.manifest.detect import sample_manifest_url
# simulate_session stays bound here: traced runs wrap it at this name.
from repro.playback.session import (  # noqa: F401
    CASE_STUDY_ABR,
    CASE_STUDY_SESSION,
    simulate_session,
    simulate_sessions,
)
from repro.playback.useragent import build_user_agent
from repro.stats.normal import ndtri
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import (
    case_video_id,
    publisher_ladder,
    video_id_for,
    zipf_cdf,
)
from repro.synthesis.population import size_decade, size_rank_percentile
from repro.synthesis.portfolios import PortfolioAssigner
from repro.synthesis.syndication import CaseStudy
from repro.telemetry.records import RecordColumns

_FAMILY_WEIGHTS = {
    Platform.BROWSER: cal.BROWSER_FAMILY_WEIGHT,
    Platform.MOBILE: cal.MOBILE_FAMILY_WEIGHT,
    Platform.SET_TOP: cal.SET_TOP_FAMILY_WEIGHT,
    Platform.SMART_TV: cal.SMART_TV_FAMILY_WEIGHT,
    Platform.CONSOLE: cal.CONSOLE_FAMILY_WEIGHT,
}

#: Median device-side throughput per platform (kbps), for the plain
#: records' QoE fields (the case study uses the full simulator).
_PLATFORM_THROUGHPUT_MEDIAN = {
    Platform.BROWSER: 6_000.0,
    Platform.MOBILE: 4_500.0,
    Platform.SET_TOP: 12_000.0,
    Platform.SMART_TV: 10_000.0,
    Platform.CONSOLE: 8_000.0,
}

_APPLE_FAMILIES = frozenset({"ios", "appletv"})

#: Number of strata for duration sampling (see ``_durations``).
_DURATION_STRATA = 8

#: Share of views that download chunks from two CDNs (§3).
_MULTI_CDN_SHARE = 0.06

#: Log-sd of a record's throughput around its platform median.
_THROUGHPUT_SIGMA = 0.6

#: The average bitrate is the sustainable rate times U(low, high);
#: numpy's ``uniform(low, high)`` returns ``low + (high - low) * u``.
_BITRATE_FACTOR_LOW = 0.72
_BITRATE_FACTOR_SPAN = 0.95 - 0.72

_ISPS = tuple(f"isp_{i:02d}" for i in range(12))
_GEOS = ("CA", "NY", "TX", "UK", "DE", "IN", "BR")
_CONNECTIONS = (
    ConnectionType.WIFI,
    ConnectionType.CELLULAR_4G,
    ConnectionType.WIRED,
)


def choice_cdf(p: Sequence[float]) -> List[float]:
    """The cdf ``Generator.choice(a, p=p)`` searches, as a list.

    ``choice`` draws one ``random()`` and returns ``a[i]`` for
    ``i = cdf.searchsorted(u, side="right")`` over ``cdf = p.cumsum();
    cdf /= cdf[-1]``.  The same operations here make
    ``a[bisect_right(cdf, rng.random())]`` that exact draw, without
    ``choice``'s per-call validation.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_CONNECTION_CDF = choice_cdf((0.55, 0.25, 0.20))


def sample_without_replacement(
    rng: np.random.Generator, n: int, k: int
) -> List[int]:
    """``rng.choice(n, size=k, replace=False)``, draw for draw.

    For ``n`` up to 10,000 (device families hold a handful of models)
    numpy's ``choice`` runs Floyd's algorithm: for ``j`` in
    ``[n - k, n)`` it draws ``integers(j + 1)`` and keeps the draw, or
    ``j`` when the draw repeats an earlier pick; then it shuffles the
    picks with one ``integers(i + 1)`` per position ``i = k - 1 .. 1``.
    The same bounded draws here skip ``choice``'s hash-set and array
    set-up.
    """
    picks: List[int] = []
    for j in range(n - k, n):
        # integers(1) is always 0 and consumes no state (j == 0 only
        # when n == k, the common case): skip the call.
        drawn = int(rng.integers(j + 1)) if j else 0
        picks.append(j if drawn in picks else drawn)
    for i in range(k - 1, 0, -1):
        swap = int(rng.integers(i + 1))
        picks[i], picks[swap] = picks[swap], picks[i]
    return picks


#: One device family of a (publisher, platform): its eligible models,
#: its share of the platform's view-hours and how many models a cell
#: samples from it.
_Family = Tuple[List[Device], float, int]

#: The CDNs serving one content type: names, hostnames, ``choice`` cdf.
_CdnTable = Tuple[Tuple[str, ...], Tuple[str, ...], List[float]]


def _pick_cdns(
    rng: np.random.Generator, tables: Sequence[_CdnTable]
) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Each slot's CDNs and its first CDN's hostname.

    One double per slot picks the first CDN from its content type's
    cdf, then one double per slot runs the 6% multi-CDN test, which
    only slots with two or more CDNs can pass; one bounded integer per
    passing slot picks the second CDN among the others.
    """
    n = len(tables)
    first_u = rng.random(n).tolist()
    multi_u = rng.random(n).tolist()
    firsts = [bisect_right(cdf, u) for (_, _, cdf), u in zip(tables, first_u)]
    cdns = [(names[i],) for (names, _, _), i in zip(tables, firsts)]
    multi = [
        j
        for j, ((names, _, _), u) in enumerate(zip(tables, multi_u))
        if len(names) > 1 and u < _MULTI_CDN_SHARE
    ]
    if multi:
        highs = [len(tables[j][0]) - 1 for j in multi]
        for j, k in zip(multi, rng.integers(highs).tolist()):
            names, i = tables[j][0], firsts[j]
            cdns[j] = (names[i], (names[:i] + names[i + 1 :])[k])
    hosts = [names[i] for (_, names, _), i in zip(tables, firsts)]
    return cdns, hosts


#: One record of a publisher's snapshot before its draws: device,
#: protocol, content type, that type's CDN table, view-hours, duration
#: stratum, and the platform's tilted log-median duration, duration
#: sigma and log throughput median.
_Slot = Tuple[
    Device, Protocol, ContentType, _CdnTable, float, int, float, float, float
]


def _durations(
    rng: np.random.Generator,
    strata: Sequence[int],
    tilted_log_medians: Sequence[float],
    sigmas: Sequence[float],
) -> List[float]:
    """Length-biased lognormal durations, stratified, one per slot.

    Records carry ``weight = view_hours / duration`` so that the
    calibrated view-hour splits are *exact*.  Weighting by 1/d tilts the
    observed duration distribution by a factor 1/d, so the draw itself
    is taken from the length-biased lognormal (``tilted_log_median`` =
    log(median) + sigma^2); after 1/d weighting the views-weighted
    duration distribution is exactly the target lognormal of Fig 8.

    One double per slot lands inside the slot's stratum (cycling
    through strata tempers the view-count noise of families with few
    records, Fig 6c); each clipped uniform goes through the Cephes
    ``ndtri`` port, whose bits equal ``scipy.special.ndtri``'s, and one
    ``np.exp`` runs over the array.
    """
    u = (np.array(strata) + rng.random(len(strata))) / _DURATION_STRATA
    z = [ndtri(p) for p in np.clip(u, 1e-9, 1.0 - 1e-9).tolist()]
    return np.exp(np.array(tilted_log_medians) + np.array(sigmas) * z).tolist()


@dataclass
class _PublisherDraws:
    """One publisher's sampling tables and state for one snapshot.

    The tables (CDN cdfs, title cdfs, ladder, SDK versions) are constant
    across the publisher's cells; the SDK round-robin cursors, like the
    duration strata pools of :meth:`SessionSampler._slots`, start empty
    every snapshot, so a snapshot is a pure function of the
    construction-time state and its stream.
    """

    publisher_id: str
    content_split: List[Tuple[ContentType, float, _CdnTable]]
    owners: Tuple[str, ...]
    owner_cdfs: Tuple[List[float], ...]
    title_cdf: List[float]
    owner_ref: Optional[str]
    rungs: Tuple[float, ...]
    top_kbps: float
    sdk_versions: Dict[str, Tuple[str, ...]]
    sdk_cursor: Dict[Optional[str], int] = field(default_factory=dict)

    def videos(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[str], List[bool], List[Optional[str]]]:
        """Video IDs, syndicated flags and owners of ``n`` views.

        A syndicator draws one double per view against the syndicated
        share, then one bounded integer per syndicated view for its
        owner; every view then draws one double for its Zipf title.
        """
        owners = self.owners
        syndicated = [False] * n
        picks: List[int] = []
        if owners:
            syndicated = [
                u < cal.SYNDICATED_VIEW_SHARE for u in rng.random(n).tolist()
            ]
            picks = rng.integers(len(owners), size=sum(syndicated)).tolist()
        owner_picks = iter(picks)
        video_ids: List[str] = []
        owner_ids: List[Optional[str]] = []
        for is_syndicated, u in zip(syndicated, rng.random(n).tolist()):
            if is_syndicated:
                k = next(owner_picks)
                index = bisect_left(self.owner_cdfs[k], u)
                video_ids.append(video_id_for(owners[k], index))
                owner_ids.append(owners[k])
            else:
                index = bisect_left(self.title_cdf, u)
                video_ids.append(video_id_for(self.publisher_id, index))
                owner_ids.append(self.owner_ref)
        return video_ids, syndicated, owner_ids

    def clients(
        self, devices: Sequence[Device], majors: Sequence[int]
    ) -> Tuple[
        List[Optional[str]], List[Optional[str]], List[Optional[str]]
    ]:
        """User agent, SDK name and SDK version of each view.

        Browser views carry a user agent with the next drawn major
        version (55 + ``majors[i]``); app views carry their device's
        SDK and the next version of it round-robin.
        """
        browser_majors = iter(majors)
        agents: List[Optional[str]] = []
        names: List[Optional[str]] = []
        versions: List[Optional[str]] = []
        for device in devices:
            if device.platform is Platform.BROWSER:
                agents.append(
                    build_user_agent(
                        device.model.split("-")[0],
                        major_version=55 + next(browser_majors),
                    )
                )
                names.append(None)
                versions.append(None)
            else:
                agents.append(None)
                names.append(device.sdk_name)
                versions.append(self.sdk_version(device.sdk_name))
        return agents, names, versions

    def sdk_version(self, sdk_name: Optional[str]) -> str:
        """Round-robin through the publisher's versions of one SDK.

        Cycling guarantees that, given enough records, every maintained
        version shows up in telemetry — which is what lets the Fig 13c
        unique-SDKs metric be measured from the dataset.
        """
        versions = self.sdk_versions.get(sdk_name, ("1.0",))
        cursor = self.sdk_cursor.get(sdk_name, 0)
        self.sdk_cursor[sdk_name] = cursor + 1
        return versions[cursor % len(versions)]


class SessionSampler:
    """Samples weighted view records for the whole study."""

    def __init__(
        self,
        rng: np.random.Generator,
        publishers: Sequence[Publisher],
        assigner: PortfolioAssigner,
        registry: DeviceRegistry,
        dash_driver_ids: FrozenSet[str],
        top3_ids: FrozenSet[str],
        syndicator_owners: Mapping[str, Tuple[str, ...]],
        case_study: Optional[CaseStudy] = None,
    ) -> None:
        self._publishers = {p.publisher_id: p for p in publishers}
        self._assigner = assigner
        self._registry = registry
        self._dash_drivers = dash_driver_ids
        self._top3 = top3_ids
        self._syndicator_owners = dict(syndicator_owners)
        self._case_study = case_study
        self._ladders: Dict[str, BitrateLadder] = {
            p.publisher_id: publisher_ladder(rng, p) for p in publishers
        }
        self._live_share: Dict[str, float] = {
            p.publisher_id: float(rng.beta(2.0, 4.0)) for p in publishers
        }
        # Per-build tables, filled on first use and dropped with the
        # sampler: title cdfs by catalogue size and final-profile SDK
        # versions by publisher.
        self._title_cdfs: Dict[int, List[float]] = {}
        self._final_sdks: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Regular records
    # ------------------------------------------------------------------

    def snapshot_records(
        self,
        snapshot: date,
        t: float,
        scale: float = 1.0,
        *,
        rng: np.random.Generator,
    ) -> RecordColumns:
        """All records for one bi-weekly snapshot, drawn from ``rng``,
        as one batch of columns.

        Per-snapshot sampling state (SDK round-robin cursors, duration
        strata pools) starts empty on every call, so each snapshot is a
        pure function of (construction-time state, snapshot stream):
        snapshots can be generated out of order — or in parallel worker
        processes — and still match a serial build byte for byte.  The
        generator derives one stream per snapshot via
        ``np.random.SeedSequence(seed).spawn(...)``.
        """
        batch = RecordColumns.empty()
        for publisher_id in sorted(self._publishers):
            batch.extend(
                self._publisher_records(rng, publisher_id, snapshot, t, scale)
            )
        return batch

    def _publisher_records(
        self,
        rng: np.random.Generator,
        publisher_id: str,
        snapshot: date,
        t: float,
        scale: float,
    ) -> RecordColumns:
        """One publisher's records of one snapshot, in three phases.

        The cell walk lays out one slot per record (:meth:`_slots`);
        then each attribute takes one vector draw over all of the
        publisher's slots, in the order DESIGN.md §16 lists; then the
        drawn values become the batch's columns.  A publisher
        holds about 48 records per snapshot, enough to amortize numpy's
        per-call cost; a cell, at about 8, is not.
        """
        publisher = self._publishers[publisher_id]
        profile = self._assigner.profile_at(publisher_id, t)
        draws = self._publisher_draws(publisher, profile, t)
        slots = self._slots(rng, draws, publisher, profile, t, scale)
        if not slots:
            return RecordColumns.empty()
        n = len(slots)
        (
            devices, protocols, content_types, cdn_tables, view_hours,
            strata, tilted_log_medians, sigmas, log_throughputs,
        ) = zip(*slots)
        durations = _durations(rng, strata, tilted_log_medians, sigmas)
        cdns, hosts = _pick_cdns(rng, cdn_tables)
        video_ids, syndicated, owner_ids = draws.videos(rng, n)
        browser_views = sum(d.platform is Platform.BROWSER for d in devices)
        majors = rng.integers(30, size=browser_views).tolist()
        throughputs = np.exp(
            np.array(log_throughputs)
            + _THROUGHPUT_SIGMA * rng.standard_normal(n)
        ).tolist()
        factors = rng.random(n).tolist()
        rebuffers = rng.beta(1.2, 60.0, size=n).tolist()
        isps = rng.integers(len(_ISPS), size=n).tolist()
        geos = rng.integers(len(_GEOS), size=n).tolist()
        connections = rng.random(n).tolist()
        user_agents, sdk_names, sdk_versions = draws.clients(devices, majors)
        top_kbps = draws.top_kbps
        # One column per ViewRecord field, in declaration order.  weight
        # x duration == the slot's exact view-hours, so every share
        # analysis sees the calibrated splits without sampling noise;
        # the tilted duration draw keeps the views-weighted
        # distribution on target.
        return RecordColumns(
            [
                [snapshot] * n,
                [publisher_id] * n,
                list(map(sample_manifest_url, protocols, video_ids, hosts)),
                [device.model for device in devices],
                [device.os_name for device in devices],
                cdns,
                [draws.rungs] * n,
                durations,
                [
                    min(top_kbps, throughput)
                    * (_BITRATE_FACTOR_LOW + _BITRATE_FACTOR_SPAN * factor)
                    for throughput, factor in zip(throughputs, factors)
                ],
                rebuffers,
                list(content_types),
                video_ids,
                [vh / duration for vh, duration in zip(view_hours, durations)],
                user_agents,
                sdk_names,
                sdk_versions,
                syndicated,
                owner_ids,
                [_ISPS[i] for i in isps],
                [_GEOS[i] for i in geos],
                [
                    _CONNECTIONS[bisect_right(_CONNECTION_CDF, u)]
                    for u in connections
                ],
            ]
        )

    def _slots(
        self,
        rng: np.random.Generator,
        draws: _PublisherDraws,
        publisher: Publisher,
        profile: PublisherProfile,
        t: float,
        scale: float,
    ) -> List[_Slot]:
        """Walk the publisher's (platform, protocol) cells into slots.

        A cell first picks ``k`` of each family's ``n`` eligible models
        without replacement, in sorted family order.  Then each device
        × content type × duration split adds one slot and pops its
        duration stratum from the device's (platform, family) pool.  An
        empty pool is refilled in place with ``range(8)`` shuffled by
        ``rng.shuffle``, the swaps ``rng.permutation(8)`` makes:
        consecutive slots cover every stratum, in an order that never
        aligns with the walk.  A content type that no CDN serves adds
        no slot.
        """
        publisher_id = publisher.publisher_id
        window_vh = publisher.daily_view_hours * 2.0 * scale
        platform_weights = self._platform_weights(publisher_id, profile, t)
        protocol_weights = self._protocol_weights(publisher_id, profile, t)
        served = [
            (content_type, share, table)
            for content_type, share, table in draws.content_split
            if table[0]  # names: a content type no CDN serves
        ]
        slots: List[_Slot] = []
        for platform, w_platform in platform_weights.items():
            families = self._device_families(publisher, profile, platform, t)
            # Duration strata pools by device family; platforms are the
            # outer loop, so each pool lives for one platform's cells.
            pools: Dict[str, List[int]] = {}
            median, sigma = cal.VIEW_DURATION_LOGNORMAL[platform]
            tilted_log_median = float(np.log(median) + sigma**2)
            log_throughput = float(
                np.log(_PLATFORM_THROUGHPUT_MEDIAN[platform])
            )
            for protocol, w_protocol in protocol_weights.items():
                if not self._compatible(platform, protocol):
                    continue
                cell_vh = window_vh * w_platform * w_protocol
                if cell_vh <= 0:
                    continue
                devices: List[Device] = []
                device_share: List[float] = []
                for models, family_share, take in families:
                    picks = sample_without_replacement(rng, len(models), take)
                    for i in picks:
                        devices.append(models[i])
                        device_share.append(family_share / take)
                for device, share in zip(devices, device_share):
                    pool = pools.setdefault(device.family, [])
                    for content_type, ct_share, cdn_table in served:
                        vh = cell_vh * share * ct_share
                        # Split heavy cells into several duration draws:
                        # the views-weighted duration CDF (Fig 8) is a
                        # self-normalized estimator whose bias shrinks
                        # with the effective number of draws behind the
                        # big publishers.
                        splits = min(max(int(round(vh / 3e5)), 1), 6)
                        for _ in range(splits):
                            if not pool:
                                pool.extend(range(_DURATION_STRATA))
                                rng.shuffle(pool)
                            slots.append(
                                (
                                    device,
                                    protocol,
                                    content_type,
                                    cdn_table,
                                    vh / splits,
                                    pool.pop(),
                                    tilted_log_median,
                                    sigma,
                                    log_throughput,
                                )
                            )
        return slots

    def _publisher_draws(
        self, publisher: Publisher, profile: PublisherProfile, t: float
    ) -> _PublisherDraws:
        publisher_id = publisher.publisher_id
        owners = self._syndicator_owners.get(publisher_id, ())
        ladder = self._ladders[publisher_id]
        return _PublisherDraws(
            publisher_id=publisher_id,
            content_split=[
                (ctype, share, self._cdn_table(profile, ctype, t))
                for ctype, share in self._content_split(publisher)
            ],
            owners=owners,
            owner_cdfs=tuple(
                self._title_cdf(self._publishers[owner_id].catalogue_size)
                for owner_id in owners
            ),
            title_cdf=self._title_cdf(publisher.catalogue_size),
            # Owned content carries the owned/syndicated flag of §6:
            # owner-role publishers reference themselves, so owners whose
            # content is never syndicated still appear in the Fig 14
            # population.
            owner_ref=(
                publisher_id
                if publisher.role is SyndicationRole.OWNER
                else None
            ),
            rungs=ladder.bitrates_kbps,
            top_kbps=ladder.max_bitrate_kbps,
            sdk_versions=self._final_sdk_versions(publisher_id),
        )

    def _device_families(
        self,
        publisher: Publisher,
        profile: PublisherProfile,
        platform: Platform,
        t: float,
    ) -> List[_Family]:
        """The platform's device families in sorted order, with shares.

        The cell's view-hours go to device families by the calibrated
        family weights; each family's share is then spread over a
        rotating sample of its models.  Splitting at the family level
        keeps Fig 10's shares exact; sampling at the model level keeps
        the combination metric's device breadth.
        """
        by_family: Dict[str, List[Device]] = {}
        for device in self._eligible_devices(profile, platform):
            by_family.setdefault(device.family, []).append(device)
        family_weights = self._family_weight_map(platform, t)
        weights = {
            family: family_weights.get(family, 0.05)
            for family in sorted(by_family)
        }
        total_weight = sum(weights.values())
        per_family = cal.DEVICES_PER_CELL_BY_DECADE[
            size_decade(publisher.daily_view_hours)
        ]
        return [
            (
                by_family[family],
                weights[family] / total_weight,
                min(per_family, len(by_family[family])),
            )
            for family in sorted(by_family)
        ]

    def _cdn_table(
        self, profile: PublisherProfile, content_type: ContentType, t: float
    ) -> _CdnTable:
        """Names, hostnames and ``choice`` cdf of the CDNs serving a
        content type, weighted by their calibrated drift at ``t``."""
        names = tuple(
            a.cdn.name
            for a in profile.cdn_assignments
            if a.serves(content_type)
        )
        if not names:
            return (), (), []
        weights = np.array(
            [
                cal.CDN_WEIGHT[name].level(t)
                if name in cal.CDN_WEIGHT
                else cal.CDN_WEIGHT["OTHER"].level(t)
                for name in names
            ]
        )
        hosts = tuple(f"{name.lower()}.cdn.example.net" for name in names)
        return names, hosts, choice_cdf(weights / weights.sum())

    def _title_cdf(self, catalogue_size: int) -> List[float]:
        cdf = self._title_cdfs.get(catalogue_size)
        if cdf is None:
            cdf = zipf_cdf(catalogue_size)
            self._title_cdfs[catalogue_size] = cdf
        return cdf

    def _final_sdk_versions(
        self, publisher_id: str
    ) -> Dict[str, Tuple[str, ...]]:
        """Sorted SDK versions by SDK name in the publisher's final
        (t = 1) profile: the versions it maintains over the study."""
        versions = self._final_sdks.get(publisher_id)
        if versions is None:
            by_name: Dict[str, List[str]] = {}
            for sdk in self._assigner.profile_at(publisher_id, 1.0).sdks:
                by_name.setdefault(sdk.name, []).append(sdk.version)
            versions = {
                name: tuple(sorted(found)) for name, found in by_name.items()
            }
            self._final_sdks[publisher_id] = versions
        return versions

    # ------------------------------------------------------------------
    # Weight helpers
    # ------------------------------------------------------------------

    def _platform_weights(
        self, publisher_id: str, profile: PublisherProfile, t: float
    ) -> Dict[Platform, float]:
        weights: Dict[Platform, float] = {}
        # Sorted iteration: frozenset order varies across processes
        # (enum hashes are identity-based), and RNG consumption order
        # must be deterministic for reproducible datasets.
        for platform in sorted(profile.platforms, key=lambda p: p.value):
            weight = cal.PLATFORM_WEIGHT[platform].level(t)
            if publisher_id in self._top3:
                weight *= cal.TOP3_PLATFORM_TILT[platform].level(t)
            weights[platform] = weight
        total = sum(weights.values())
        return {k: v / total for k, v in weights.items()}

    def _protocol_weights(
        self, publisher_id: str, profile: PublisherProfile, t: float
    ) -> Dict[Protocol, float]:
        size_pct = size_rank_percentile(
            self._publishers[publisher_id].daily_view_hours
        )
        spread = 1.0 + cal.PROTOCOL_SPREAD_BY_SIZE * size_pct
        weights: Dict[Protocol, float] = {}
        for protocol in sorted(profile.protocols, key=lambda p: p.value):
            weight = cal.PROTOCOL_BASE_WEIGHT[protocol]
            if protocol not in (Protocol.HLS, Protocol.DASH):
                # Larger publishers spread load across their protocols.
                # DASH stays shallow outside the drivers (Fig 2c/Fig 4):
                # its ecosystem was not yet mature for heavy use.
                weight *= spread
            if (
                protocol is Protocol.DASH
                and publisher_id in self._dash_drivers
            ):
                weight = cal.DASH_DRIVER_WEIGHT.level(t)
            if protocol is Protocol.RTMP:
                weight = cal.PROTOCOL_BASE_WEIGHT[protocol] * max(
                    1.0 - 0.95 * t, 0.02
                )
            weights[protocol] = weight
        total = sum(weights.values())
        return {k: v / total for k, v in weights.items()}

    @staticmethod
    def _compatible(platform: Platform, protocol: Protocol) -> bool:
        """RTMP playback needs Flash, i.e. a browser plugin (§4.1)."""
        if protocol is Protocol.RTMP:
            return platform is Platform.BROWSER
        return True

    def _content_split(
        self, publisher: Publisher
    ) -> List[Tuple[ContentType, float]]:
        if publisher.serves_live and publisher.serves_vod:
            live = self._live_share[publisher.publisher_id]
            return [
                (ContentType.LIVE, live),
                (ContentType.VOD, 1.0 - live),
            ]
        if publisher.serves_live:
            return [(ContentType.LIVE, 1.0)]
        return [(ContentType.VOD, 1.0)]

    def _family_weight_map(
        self, platform: Platform, t: float
    ) -> Dict[str, float]:
        return {
            family: drift.level(t)
            for family, drift in _FAMILY_WEIGHTS[platform].items()
        }

    def _eligible_devices(
        self, profile: PublisherProfile, platform: Platform
    ) -> List[Device]:
        """Supported device models of one platform, in stable order."""
        has_hls = Protocol.HLS in profile.protocols
        eligible = []
        for model in sorted(profile.device_models):
            device = self._registry.lookup(model)
            if device.platform is not platform:
                continue
            if not has_hls and device.family in _APPLE_FAMILIES:
                continue  # Apple devices require HLS (§2)
            eligible.append(device)
        return eligible

    # ------------------------------------------------------------------
    # Case-study records (Figs 15-17)
    # ------------------------------------------------------------------

    def case_study_records(
        self,
        snapshot: date,
        sessions_per_combo: int,
        *,
        rng: np.random.Generator,
    ) -> RecordColumns:
        """Simulated owner/syndicator sessions for the popular video,
        as one batch of columns.

        California iPad clients over WiFi, per (ISP, CDN) combination;
        network draws are paired across publishers so QoE differences
        come from the ladders alone.  Like :meth:`snapshot_records`,
        the batch draws only from ``rng``, so it does not depend on how
        many snapshots were sampled before it.
        """
        if self._case_study is None:
            return RecordColumns.empty()
        study = self._case_study
        profiles = default_isp_profiles()
        labels = ("O",) + study.syndicator_labels
        view_hours = CASE_STUDY_SESSION.view_seconds / 3600.0
        records = RecordColumns.empty()
        for isp_name, cdn_name in cal.QOE_COMBOS:
            path = profiles[isp_name].path_to(cdn_name)
            session_means = [
                path.sample_session_mean(rng)
                for _ in range(sessions_per_combo)
            ]
            results = iter(
                simulate_sessions(
                    [
                        study.ladder(label)
                        for label in labels
                        for _ in session_means
                    ],
                    path,
                    CASE_STUDY_SESSION,
                    rng,
                    abr=CASE_STUDY_ABR,
                    session_means=session_means * len(labels),
                )
            )
            for label in labels:
                publisher_id = study.publisher_id(label)
                ladder = study.ladder(label)
                url = sample_manifest_url(
                    Protocol.HLS,
                    case_video_id(),
                    f"{cdn_name.lower()}.cdn.example.net",
                )
                for result in itertools.islice(results, sessions_per_combo):
                    records.append(
                        snapshot=snapshot,
                        publisher_id=publisher_id,
                        url=url,
                        device_model=cal.CASE_STUDY_DEVICE,
                        os_name="ios",
                        cdn_names=(cdn_name,),
                        bitrate_ladder_kbps=ladder.bitrates_kbps,
                        view_duration_hours=view_hours,
                        avg_bitrate_kbps=result.average_bitrate_kbps,
                        rebuffer_ratio=result.rebuffer_ratio,
                        content_type=ContentType.VOD,
                        video_id=case_video_id(),
                        weight=1.0,
                        sdk_name="AVFoundation",
                        sdk_version="10.2",
                        is_syndicated=(label != "O"),
                        owner_id=study.owner_id if label != "O" else None,
                        isp=isp_name,
                        geo=cal.CASE_STUDY_GEO,
                        connection=cal.CASE_STUDY_CONNECTION,
                    )
        return records
