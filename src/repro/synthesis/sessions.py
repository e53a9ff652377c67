"""View-record sampling: turning portfolios into telemetry.

For every publisher and snapshot, the sampler enumerates the
(platform, protocol) cells the publisher's management plane serves,
splits the publisher's two-day view-hours across those cells using the
calibrated time-varying weights, and emits weighted view records with
realistic URLs, devices, SDK versions, CDNs, durations and QoE.

The §6 case-study records (Figs 15-17) are generated separately via the
playback simulator so that owner/syndicator QoE differences *emerge*
from their ladder choices rather than being painted on.
"""

from __future__ import annotations

import itertools
from datetime import date
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

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
from repro.playback.abr import ThroughputAbr
# simulate_session stays bound here: traced runs wrap it at this name.
from repro.playback.session import (  # noqa: F401
    SessionConfig,
    simulate_session,
    simulate_sessions,
)
from repro.playback.useragent import build_user_agent
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import (
    case_video_id,
    publisher_ladder,
    sample_video_index,
    video_id_for,
)
from repro.synthesis.population import size_decade, size_rank_percentile
from repro.synthesis.portfolios import PortfolioAssigner
from repro.synthesis.syndication import CaseStudy
from repro.telemetry.records import ViewRecord

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
        self._rng = rng
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
        self._sdk_cursor: Dict[Tuple[str, str], int] = {}
        self._sdk_versions: Dict[Tuple[str, str], List[str]] = {}
        self._duration_strata_pool: Dict[
            Tuple[str, Platform, str], List[int]
        ] = {}

    # ------------------------------------------------------------------
    # Regular records
    # ------------------------------------------------------------------

    def snapshot_records(
        self,
        snapshot: date,
        t: float,
        scale: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> List[ViewRecord]:
        """All records for one bi-weekly snapshot.

        When ``rng`` is given, the snapshot is sampled from that stream
        and all per-snapshot sampling state (SDK round-robin cursors,
        duration strata pools) is reset first.  Each snapshot is then a
        pure function of (construction-time state, snapshot stream), so
        snapshots can be generated out of order — or in parallel
        worker processes — and still match a serial build byte for
        byte.  The generator derives one stream per snapshot via
        ``np.random.SeedSequence(seed).spawn(...)``.
        """
        if rng is not None:
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
        records: List[ViewRecord] = []
        for platform, w_platform in platform_weights.items():
            for protocol, w_protocol in protocol_weights.items():
                if not self._compatible(platform, protocol):
                    continue
                cell_vh = window_vh * w_platform * w_protocol
                if cell_vh <= 0:
                    continue
                records.extend(
                    self._cell_records(
                        publisher,
                        profile,
                        platform,
                        protocol,
                        cell_vh,
                        snapshot,
                        t,
                    )
                )
        return records

    def _cell_records(
        self,
        publisher: Publisher,
        profile: PublisherProfile,
        platform: Platform,
        protocol: Protocol,
        cell_vh: float,
        snapshot: date,
        t: float,
    ) -> List[ViewRecord]:
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
        records: List[ViewRecord] = []
        for device, share in zip(devices, device_share):
            for content_type, ct_share in self._content_split(publisher):
                vh = cell_vh * float(share) * ct_share
                # Split heavy cells into several duration draws: the
                # views-weighted duration CDF (Fig 8) is a
                # self-normalized estimator whose bias shrinks with the
                # effective number of draws behind the big publishers.
                splits = min(max(int(round(vh / 3e5)), 1), 6)
                for _ in range(splits):
                    record = self._make_record(
                        publisher,
                        profile,
                        platform,
                        protocol,
                        device,
                        content_type,
                        vh / splits,
                        snapshot,
                        t,
                    )
                    if record is not None:
                        records.append(record)
        return records

    def _make_record(
        self,
        publisher: Publisher,
        profile: PublisherProfile,
        platform: Platform,
        protocol: Protocol,
        device: Device,
        content_type: ContentType,
        vh: float,
        snapshot: date,
        t: float,
    ) -> Optional[ViewRecord]:
        rng = self._rng
        median, sigma = cal.VIEW_DURATION_LOGNORMAL[platform]
        duration = self._stratified_duration(
            publisher.publisher_id, platform, device.family, median, sigma
        )
        # weight x duration == the cell's exact view-hours, so every
        # share analysis sees the calibrated splits without sampling
        # noise; the tilted draw (see _stratified_duration) keeps the
        # views-weighted duration distribution on target.
        views = vh / duration
        cdns = self._pick_cdns(profile, content_type, t)
        if not cdns:
            return None
        video_id, is_syndicated, owner_id = self._pick_video(publisher)
        url = sample_manifest_url(
            protocol, video_id, f"{cdns[0].lower()}.cdn.example.net"
        )
        ladder = self._ladders[publisher.publisher_id]
        user_agent = None
        sdk_name = None
        sdk_version = None
        if platform is Platform.BROWSER:
            browser = device.model.split("-")[0]
            user_agent = build_user_agent(
                browser if browser != "ie11" else "ie11",
                major_version=55 + int(rng.integers(0, 30)),
            )
        else:
            sdk_name = device.sdk_name
            sdk_version = self._next_sdk_version(
                publisher.publisher_id, profile, sdk_name
            )
        throughput = float(
            np.exp(
                rng.normal(
                    np.log(_PLATFORM_THROUGHPUT_MEDIAN[platform]), 0.6
                )
            )
        )
        avg_bitrate = min(ladder.max_bitrate_kbps, throughput) * float(
            rng.uniform(0.72, 0.95)
        )
        rebuffer = float(rng.beta(1.2, 60.0))
        return ViewRecord(
            snapshot=snapshot,
            publisher_id=publisher.publisher_id,
            url=url,
            device_model=device.model,
            os_name=device.os_name,
            cdn_names=cdns,
            bitrate_ladder_kbps=ladder.bitrates_kbps,
            view_duration_hours=duration,
            avg_bitrate_kbps=avg_bitrate,
            rebuffer_ratio=rebuffer,
            content_type=content_type,
            video_id=video_id,
            weight=float(views),
            user_agent=user_agent,
            sdk_name=sdk_name,
            sdk_version=sdk_version,
            is_syndicated=is_syndicated,
            owner_id=owner_id,
            isp=f"isp_{int(rng.integers(0, 12)):02d}",
            geo=rng.choice(("CA", "NY", "TX", "UK", "DE", "IN", "BR")),
            connection=ConnectionType(
                rng.choice(("wifi", "4g", "wired"), p=(0.55, 0.25, 0.20))
            ),
        )

    #: Number of strata for duration sampling (see below).
    _DURATION_STRATA = 8

    def _stratified_duration(
        self,
        publisher_id: str,
        platform: Platform,
        family: str,
        median: float,
        sigma: float,
    ) -> float:
        """Length-biased lognormal duration draw, stratified.

        Records carry ``weight = view_hours / duration`` so that the
        calibrated view-hour splits are *exact*.  Weighting by 1/d
        tilts the observed duration distribution by a factor 1/d, so
        the draw itself is taken from the length-biased lognormal
        (median scaled by e^(sigma^2)); after 1/d weighting the
        views-weighted duration distribution is exactly the target
        lognormal of Fig 8.

        Draws cycle through shuffled quantile strata per (publisher,
        platform, family), which tempers the view-count noise of
        families with few records (Fig 6c).
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
        stratum = int(pool.pop())
        u = (stratum + float(self._rng.uniform())) / self._DURATION_STRATA
        u = min(max(u, 1e-9), 1.0 - 1e-9)
        tilted_log_median = np.log(median) + sigma**2
        return float(np.exp(tilted_log_median + sigma * ndtri(u)))

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

    def _pick_cdns(
        self, profile: PublisherProfile, content_type: ContentType, t: float
    ) -> Tuple[str, ...]:
        eligible = [
            a for a in profile.cdn_assignments if a.serves(content_type)
        ]
        if not eligible:
            return ()
        names = [a.cdn.name for a in eligible]
        weights = np.array(
            [
                cal.CDN_WEIGHT[name].level(t)
                if name in cal.CDN_WEIGHT
                else cal.CDN_WEIGHT["OTHER"].level(t)
                for name in names
            ]
        )
        probs = weights / weights.sum()
        first = str(self._rng.choice(names, p=probs))
        # A small fraction of views download chunks from two CDNs (§3).
        if len(names) > 1 and self._rng.uniform() < 0.06:
            others = [n for n in names if n != first]
            second = others[int(self._rng.integers(len(others)))]
            return (first, second)
        return (first,)

    def _pick_video(
        self, publisher: Publisher
    ) -> Tuple[str, bool, Optional[str]]:
        owners = self._syndicator_owners.get(publisher.publisher_id, ())
        if owners and self._rng.uniform() < cal.SYNDICATED_VIEW_SHARE:
            owner_id = owners[int(self._rng.integers(len(owners)))]
            owner = self._publishers[owner_id]
            index = sample_video_index(self._rng, owner.catalogue_size)
            return video_id_for(owner_id, index), True, owner_id
        index = sample_video_index(self._rng, publisher.catalogue_size)
        # Owned content carries the owned/syndicated flag of §6: owner-
        # role publishers reference themselves, so owners whose content
        # is never syndicated still appear in the Fig 14 population.
        owner_ref = (
            publisher.publisher_id
            if publisher.role is SyndicationRole.OWNER
            else None
        )
        return video_id_for(publisher.publisher_id, index), False, owner_ref

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

    # ------------------------------------------------------------------
    # Case-study records (Figs 15-17)
    # ------------------------------------------------------------------

    def case_study_records(
        self,
        snapshot: date,
        sessions_per_combo: int,
        rng: Optional[np.random.Generator] = None,
    ) -> List[ViewRecord]:
        """Simulated owner/syndicator sessions for the popular video.

        California iPad clients over WiFi, per (ISP, CDN) combination;
        network draws are paired across publishers so QoE differences
        come from the ladders alone.  Like :meth:`snapshot_records`,
        an explicit ``rng`` makes the batch independent of how many
        snapshots were sampled before it.
        """
        if rng is not None:
            self._rng = rng
        if self._case_study is None:
            return []
        study = self._case_study
        profiles = default_isp_profiles()
        abr = ThroughputAbr(safety=0.85)
        config = SessionConfig(
            view_seconds=900.0, chunk_seconds=6.0, max_buffer_seconds=20.0
        )
        labels = ("O",) + study.syndicator_labels
        records: List[ViewRecord] = []
        for isp_name, cdn_name in cal.QOE_COMBOS:
            path = profiles[isp_name].path_to(cdn_name)
            session_means = [
                path.sample_session_mean(self._rng)
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
                    config,
                    self._rng,
                    abr=abr,
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
                        ViewRecord(
                            snapshot=snapshot,
                            publisher_id=publisher_id,
                            url=url,
                            device_model="ipad",
                            os_name="ios",
                            cdn_names=(cdn_name,),
                            bitrate_ladder_kbps=ladder.bitrates_kbps,
                            view_duration_hours=config.view_seconds / 3600.0,
                            avg_bitrate_kbps=result.average_bitrate_kbps,
                            rebuffer_ratio=result.rebuffer_ratio,
                            content_type=ContentType.VOD,
                            video_id=case_video_id(),
                            weight=1.0,
                            sdk_name="AVFoundation",
                            sdk_version="10.2",
                            is_syndicated=(label != "O"),
                            owner_id=(
                                study.owner_id if label != "O" else None
                            ),
                            isp=isp_name,
                            geo="CA",
                            connection=ConnectionType.WIFI,
                        )
                    )
        return records
