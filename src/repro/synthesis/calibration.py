"""Calibration constants: every number the generator aims to reproduce.

The synthetic ecosystem is calibrated against the *reported* statistics
of the paper — the prevalence levels, trends, distributions, slopes and
case-study values quoted in §§4-6.  Keeping them all here (a) makes the
substitution auditable against the paper, and (b) lets tests and
benches compare measured values with paper values from one place.

``PAPER`` holds what the paper reports; ``DEFAULT_CONFIG`` holds the
generator parameters chosen so the analyses land near those values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.constants import ConnectionType, Platform, Protocol
from repro.errors import CalibrationError
from repro.synthesis.trends import AdoptionCurve, LinearDrift

# ---------------------------------------------------------------------------
# Paper-reported targets (§§4-6), used for verification and reporting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperTargets:
    """Values the paper reports, with our measured analogues benched
    against them in EXPERIMENTS.md."""

    # §4.1 protocols (latest snapshot unless a range is given)
    publisher_share_latest: Mapping[Protocol, float] = field(
        default_factory=lambda: {
            Protocol.HLS: 91.0,
            Protocol.DASH: 43.0,
            Protocol.MSS: 40.0,
            Protocol.HDS: 19.0,
        }
    )
    dash_publisher_share_first: float = 10.0
    view_hour_share_latest: Mapping[Protocol, float] = field(
        default_factory=lambda: {
            Protocol.HLS: 42.0,  # "38-45%"
            Protocol.DASH: 38.0,
            Protocol.MSS: 12.0,
            Protocol.HDS: 6.0,
        }
    )
    dash_view_hour_share_first: float = 3.0
    dash_share_excluding_drivers: float = 5.0  # Fig 2c: "< 5%"
    rtmp_view_hour_share_first: float = 1.6
    rtmp_view_hour_share_latest: float = 0.1
    # Fig 3a: % publishers using n protocols / % view-hours from them
    pct_publishers_one_protocol: float = 38.0
    pct_view_hours_one_protocol: float = 10.0  # "< 10%"
    pct_publishers_two_protocols: float = 38.0
    pct_view_hours_two_protocols: float = 60.0
    # Fig 3c / §4.4 weighted averages in the latest snapshot
    weighted_avg_protocols: float = 2.2
    weighted_avg_platforms: float = 4.5
    weighted_avg_cdns: float = 4.5
    # Fig 4: among HLS publishers, median HLS share of their view-hours
    median_hls_share_among_supporters: float = 85.0
    median_dash_share_among_supporters: float = 20.0  # "at most 20%"
    # §4.2 platforms
    platform_view_hour_share_latest: Mapping[Platform, float] = field(
        default_factory=lambda: {
            Platform.BROWSER: 25.0,
            Platform.SET_TOP: 40.0,
            Platform.MOBILE: 22.0,
            Platform.SMART_TV: 5.0,
            Platform.CONSOLE: 8.0,
        }
    )
    browser_view_hour_share_first: float = 60.0
    set_top_views_share_latest: float = 20.0
    pct_publishers_multi_platform: float = 85.0
    pct_view_hours_multi_platform: float = 95.0
    pct_publishers_all_platforms: float = 30.0
    pct_view_hours_all_platforms: float = 60.0
    long_view_fraction_mobile: float = 0.24  # P[view > 0.2 h], Fig 8
    long_view_fraction_set_top: float = 0.60
    flash_share_first: float = 60.0  # Fig 10a, % of browser view-hours
    flash_share_latest: float = 40.0
    html5_share_first: float = 25.0
    html5_share_latest: float = 60.0
    # §4.3 CDNs
    cdn_publisher_share_latest: Mapping[str, float] = field(
        default_factory=lambda: {"A": 80.0, "C": 30.0, "B": 25.0}
    )
    top5_view_hour_share: float = 93.0
    pct_publishers_one_cdn: float = 40.0  # "> 40%"
    pct_view_hours_one_cdn: float = 5.0  # "< 5%"
    pct_publishers_five_cdns: float = 10.0  # "< 10%"
    pct_view_hours_five_cdns: float = 50.0  # "> 50%"
    pct_view_hours_4_or_5_cdns: float = 80.0
    pct_vod_only_cdn_publishers: float = 30.0
    pct_live_only_cdn_publishers: float = 19.0
    # §5 complexity: per-decade growth factors and fit quality
    combos_factor_per_decade: float = 1.72
    protocol_titles_factor_per_decade: float = 3.8
    unique_sdks_factor_per_decade: float = 1.8
    max_unique_sdks: float = 85.0
    complexity_p_value_bound: float = 1e-9
    # §6 syndication
    pct_owners_with_syndicator: float = 80.0
    pct_owners_third_of_syndicators: float = 20.0
    owner_median_bitrate_gain: float = 2.5  # Fig 15
    owner_p90_rebuffer_reduction: float = 0.40  # Fig 16
    owner_ladder_size: int = 9
    syndicator_ladder_sizes: Tuple[int, ...] = (
        5, 3, 6, 7, 8, 10, 3, 4, 14, 6,
    )
    catalogue_storage_tb: float = 1916.0
    savings_tb_5pct: float = 316.1
    savings_pct_5pct: float = 16.5
    savings_tb_10pct: float = 865.0
    savings_pct_10pct: float = 45.2
    savings_tb_integrated: float = 1257.0
    savings_pct_integrated: float = 65.6


PAPER = PaperTargets()

# ---------------------------------------------------------------------------
# Generator configuration.
# ---------------------------------------------------------------------------

#: The confidential "X" of Figs 3b/9b/12b: daily view-hours of the
#: smallest publisher bucket.
VIEW_HOUR_BASE_X = 100.0

#: Fraction of publishers per decade bucket (<=X, X-10X, ..., >1e5X).
#: The modal bucket is 100X-1000X with >35% of publishers (§4.1).
SIZE_BUCKET_FRACTIONS = (0.07, 0.10, 0.17, 0.36, 0.17, 0.09, 0.04)

#: Protocol adoption curves: fraction of publishers supporting each
#: protocol across the study (Fig 2a endpoints).
PROTOCOL_ADOPTION: Dict[Protocol, AdoptionCurve] = {
    Protocol.HLS: AdoptionCurve(start=0.88, end=0.91, steepness=2.0),
    Protocol.DASH: AdoptionCurve(start=0.10, end=0.43, midpoint=0.55),
    Protocol.MSS: AdoptionCurve(start=0.42, end=0.40, steepness=2.0),
    Protocol.HDS: AdoptionCurve(start=0.35, end=0.19, midpoint=0.5),
    Protocol.RTMP: AdoptionCurve(start=0.12, end=0.02, midpoint=0.4),
}

#: Per-publisher view-hour split weight for a supported protocol
#: (normalized within each publisher).  HLS dominance among ordinary
#: publishers produces Fig 4's contrast: HLS supporters put a median
#: ~85% of view-hours on it, DASH supporters a median <=20%.
PROTOCOL_BASE_WEIGHT: Dict[Protocol, float] = {
    Protocol.HLS: 1.0,
    Protocol.DASH: 0.10,
    Protocol.MSS: 0.21,
    Protocol.HDS: 0.16,
    Protocol.RTMP: 0.30,
}

#: Large publishers spread view-hours more evenly across their
#: protocols (their per-device player fleets differ); small publishers
#: are HLS-dominant.  Secondary-protocol weights are multiplied by
#: ``1 + SPREAD * size_percentile``.
PROTOCOL_SPREAD_BY_SIZE = 2.2

#: Number of large publishers that drive DASH growth (the paper's
#: unnamed small N; Fig 2b vs 2c).
DASH_DRIVER_COUNT = 4

#: DASH view-hour weight of the driver publishers over time; by the last
#: snapshot they put most of their traffic on DASH.
DASH_DRIVER_WEIGHT = LinearDrift(start=0.05, end=2.2)

#: Platform adoption curves (Fig 7 endpoints).
PLATFORM_ADOPTION: Dict[Platform, AdoptionCurve] = {
    Platform.BROWSER: AdoptionCurve(start=0.96, end=0.97, steepness=2.0),
    Platform.MOBILE: AdoptionCurve(start=0.82, end=0.95, steepness=3.0),
    Platform.SET_TOP: AdoptionCurve(start=0.18, end=0.55, midpoint=0.5),
    Platform.SMART_TV: AdoptionCurve(start=0.19, end=0.63, midpoint=0.5),
    Platform.CONSOLE: AdoptionCurve(start=0.22, end=0.34, steepness=3.0),
}

#: Platform view-hour weights over time (Fig 6a shape), normalized per
#: publisher over supported platforms.
PLATFORM_WEIGHT: Dict[Platform, LinearDrift] = {
    Platform.BROWSER: LinearDrift(start=1.30, end=0.62),
    Platform.MOBILE: LinearDrift(start=0.55, end=0.62),
    Platform.SET_TOP: LinearDrift(start=0.33, end=0.52),
    Platform.SMART_TV: LinearDrift(start=0.05, end=0.08),
    Platform.CONSOLE: LinearDrift(start=0.10, end=0.13),
}

#: Extra multiplier applied to the three largest publishers' platform
#: weights, so they drive part (but not all) of the set-top surge
#: (Fig 6a vs Fig 6b).
TOP3_PLATFORM_TILT: Dict[Platform, LinearDrift] = {
    Platform.BROWSER: LinearDrift(start=1.0, end=0.70),
    Platform.MOBILE: LinearDrift(start=1.0, end=0.55),
    Platform.SET_TOP: LinearDrift(start=1.0, end=2.20),
    Platform.SMART_TV: LinearDrift(start=1.0, end=1.0),
    Platform.CONSOLE: LinearDrift(start=1.0, end=1.0),
}

#: Individual view-duration lognormals per platform: (median hours,
#: sigma of log).  Chosen so P[view > 0.2 h] matches Fig 8 (~24% for
#: mobile/browser, >60% for set-top) and so set-top view-hours outpace
#: set-top views (Fig 6a vs 6c).
VIEW_DURATION_LOGNORMAL: Dict[Platform, Tuple[float, float]] = {
    Platform.BROWSER: (0.090, 1.10),
    Platform.MOBILE: (0.095, 1.10),
    Platform.SET_TOP: (0.260, 1.00),
    Platform.SMART_TV: (0.240, 1.00),
    Platform.CONSOLE: (0.150, 1.00),
}

#: Browser player-technology weights over time (Fig 10a: Flash declines
#: from ~60% to ~40% of browser view-hours, HTML5 rises 25%->60%).
BROWSER_FAMILY_WEIGHT: Dict[str, LinearDrift] = {
    "flash": LinearDrift(start=0.60, end=0.37),
    "html5": LinearDrift(start=0.25, end=0.58),
    "silverlight": LinearDrift(start=0.10, end=0.03),
    "other_plugin": LinearDrift(start=0.05, end=0.02),
}

#: Mobile OS weights over time (Fig 10b: Android grows to parity).
MOBILE_FAMILY_WEIGHT: Dict[str, LinearDrift] = {
    "android": LinearDrift(start=0.35, end=0.50),
    "ios": LinearDrift(start=0.60, end=0.48),
    "other_mobile": LinearDrift(start=0.05, end=0.02),
}

#: Set-top family weights over time (Fig 10c: Roku dominant, AppleTV
#: and FireTV non-negligible).
SET_TOP_FAMILY_WEIGHT: Dict[str, LinearDrift] = {
    "roku": LinearDrift(start=0.60, end=0.52),
    "appletv": LinearDrift(start=0.18, end=0.20),
    "firetv": LinearDrift(start=0.10, end=0.18),
    "chromecast": LinearDrift(start=0.09, end=0.08),
    "other_settop": LinearDrift(start=0.03, end=0.02),
}

SMART_TV_FAMILY_WEIGHT: Dict[str, LinearDrift] = {
    "samsung_tv": LinearDrift(start=0.45, end=0.45),
    "lg_tv": LinearDrift(start=0.25, end=0.25),
    "android_tv": LinearDrift(start=0.15, end=0.20),
    "other_tv": LinearDrift(start=0.15, end=0.10),
}

CONSOLE_FAMILY_WEIGHT: Dict[str, LinearDrift] = {
    "xbox": LinearDrift(start=0.55, end=0.50),
    "playstation": LinearDrift(start=0.40, end=0.45),
    "other_console": LinearDrift(start=0.05, end=0.05),
}

#: Probability a publisher uses each top CDN, given it draws another CDN
#: (Fig 11a: A ~80% of publishers, C ~30%, B ~25%, D/E less).  Values
#: are sampling weights for choosing which CDNs fill a publisher's CDN
#: budget; 'OTHER' stands for the long tail of 31 regional CDNs.
CDN_POPULARITY: Dict[str, float] = {
    "A": 3.2,
    "C": 0.55,
    "B": 0.40,
    "D": 0.28,
    "E": 0.22,
    "OTHER": 0.20,
}

#: Per-publisher view-hour weight for each used CDN; drifts reproduce
#: Fig 11b (A's share falls while B and C rise to comparability).
CDN_WEIGHT: Dict[str, LinearDrift] = {
    "A": LinearDrift(start=0.95, end=0.72),
    "B": LinearDrift(start=0.38, end=0.70),
    "C": LinearDrift(start=0.52, end=0.95),
    "D": LinearDrift(start=0.22, end=0.18),
    "E": LinearDrift(start=0.18, end=0.12),
    "OTHER": LinearDrift(start=0.10, end=0.08),
}

#: CDN-count model: expected CDNs as a function of size decade
#: (0 = smallest bucket).  Fig 12b: smallest bucket all single-CDN,
#: largest all 4-5 CDNs; weighted average ~4.5 (§4.4).
CDN_COUNT_BY_DECADE = (1.0, 1.0, 1.3, 1.7, 2.6, 4.4, 5.4)

#: Protocol-count shaping: bias added to large publishers' adoption
#: thresholds so count grows with size (Fig 3b) but stays modest.
SIZE_BIAS_PROTOCOL = 0.55
SIZE_BIAS_PLATFORM = 0.75

#: Catalogue size model: titles = CATALOGUE_BASE * (vh/X)**CATALOGUE_EXP
#: (lognormal noise on top).  With the protocol count's mild growth this
#: lands the Fig 13b protocol-titles slope near 3.8x per decade.
CATALOGUE_BASE = 18.0
CATALOGUE_EXP = 0.52

#: SDK-version model: unique SDK versions = SDK_BASE * (vh/X)**SDK_EXP,
#: spread over the publisher's app devices; Fig 13c slope ~1.8x per
#: decade with the biggest publishers near 85 code bases.
SDK_BASE = 1.9
SDK_EXP = 0.31

#: Device-model breadth per (platform, protocol) cell by size decade.
DEVICES_PER_CELL_BY_DECADE = (1, 1, 1, 2, 2, 2, 2)

#: Probability that a multi-CDN live+VoD publisher dedicates a CDN to
#: one content type.  Slightly above the paper's observed 30%/19%
#: because observation through sampled views attrits a little.
VOD_ONLY_CDN_PROB = 0.42
LIVE_ONLY_CDN_PROB = 0.20

#: Syndication graph: publisher role mix and linkage (Fig 14).
OWNER_FRACTION = 0.42
SYNDICATOR_FRACTION = 0.24
PCT_OWNERS_WITHOUT_SYNDICATION = 0.18
SYNDICATION_BETA = (1.1, 4.0)  # Beta params for fraction of syndicators

#: Share of a syndicator's view-hours spent on syndicated content.
SYNDICATED_VIEW_SHARE = 0.35

#: Case-study bitrate ladders (Fig 17): owner O and syndicators S1-S10
#: for one popular video ID on iPad over WiFi.  O spans 9 rungs past
#: 8192 kbps; S1 tops out a bit above 1024 kbps (7x below O); S2 uses
#: only 3 rungs; S9 uses 14.  S7, the Fig 15/16 comparison syndicator,
#: has a coarse ladder with a high floor — the mechanism behind both
#: its lower average bitrates and its higher rebuffering.
CASE_STUDY_LADDERS: Dict[str, Tuple[float, ...]] = {
    "O": (145, 250, 420, 730, 1300, 2350, 4300, 6500, 8600),
    "S1": (180, 320, 560, 780, 1100),
    "S2": (400, 800, 1600),
    "S3": (250, 500, 1000, 2000, 3500, 5200),
    # S4 tracks the owner's ladder ~4% high: merges at 5% tolerance.
    "S4": (150.8, 260.0, 436.8, 759.2, 1352.0, 2444.0, 6760.0),
    "S5": (200, 350, 600, 1050, 1800, 3000, 4800, 6200),
    "S6": (
        160, 270, 450, 760, 1280, 2150, 3600, 5000, 6800, 8000,
    ),
    "S7": (800, 1400, 2000),
    "S8": (300, 700, 1500, 3100),
    # S9 tracks the owner's ladder ~9% high (merges only at the 10%
    # tolerance) plus independent rungs that never merge; together with
    # S4 this lands Fig 18's 16.5% / 45.2% / 65.6% savings points.
    "S9": (
        158.05, 200, 272.5, 340, 457.8, 570, 795.7, 980, 1417,
        2561.5, 2732.65, 7085, 7795, 9374,
    ),
    "S10": (220, 440, 880, 1760, 3520, 7040),
}

#: Which syndicators participate in the Fig 18 storage study (7- and
#: 14-rung ladders, as in the paper) and where everyone pushes.
STORAGE_STUDY_SYNDICATORS = ("S4", "S9")
STORAGE_STUDY_COMMON_CDNS = ("A", "B")
OWNER_EXTRA_CDNS: Tuple[str, ...] = ()
SYNDICATOR_EXTRA_CDNS: Dict[str, Tuple[str, ...]] = {
    "S4": ("C",),
    "S9": ("D",),
}

#: Case-study catalogue: sized so the three publishers' copies total
#: ~1916 TB on each common CDN, as in Fig 18.
CASE_CATALOGUE_TITLES = 425
CASE_CATALOGUE_MEAN_HOURS = 140.0  # per-title seasons-worth of content

#: QoE study sessions per (publisher, ISP/CDN combination) — Figs 15/16.
QOE_SESSIONS_PER_COMBO = 160
QOE_COMBOS: Tuple[Tuple[str, str], ...] = (("X", "A"), ("Y", "B"))
#: The syndicator whose clients Figs 15/16 compare with the owner's.
QOE_SYNDICATOR_LABEL = "S7"
#: The §6 cut: every case-study view is an iPad client in California on
#: WiFi; Figs 15/16 compare QoE in that geography, Fig 17 the ladders
#: on that connection.
CASE_STUDY_DEVICE = "ipad"
CASE_STUDY_GEO = "CA"
CASE_STUDY_CONNECTION = ConnectionType.WIFI


@dataclass(frozen=True)
class EcosystemConfig:
    """Tunable knobs of one synthetic dataset build.

    ``dash_driver_count`` defaults to the paper's (unnamed) small N;
    setting it to 0 builds the counterfactual world in which no large
    publisher pushes DASH — the Fig 2b surge should then disappear,
    which is exactly the causal claim behind Fig 2c.
    """

    seed: int = 2018
    n_publishers: int = 110
    snapshot_limit: int = 0  # 0 = full 59-snapshot schedule
    records_scale: float = 1.0
    include_case_study: bool = True
    qoe_sessions: int = QOE_SESSIONS_PER_COMBO
    dash_driver_count: int = DASH_DRIVER_COUNT

    def __post_init__(self) -> None:
        if self.n_publishers < 20:
            raise CalibrationError(
                "need at least 20 publishers for stable statistics"
            )
        if self.seed < 0:
            raise CalibrationError(f"seed must be >= 0, got {self.seed}")
        if self.snapshot_limit < 0 or self.snapshot_limit == 1:
            raise CalibrationError(
                f"snapshot_limit must be 0 or >= 2, got {self.snapshot_limit}"
            )
        if self.records_scale <= 0:
            raise CalibrationError("records_scale must be positive")
        if self.qoe_sessions < 10:
            raise CalibrationError("need at least 10 QoE sessions")
        if self.dash_driver_count < 0:
            raise CalibrationError("driver count must be non-negative")


DEFAULT_CONFIG = EcosystemConfig()


def validate_calibration() -> None:
    """Cross-check calibration invariants; raises CalibrationError."""
    if abs(sum(SIZE_BUCKET_FRACTIONS) - 1.0) > 1e-9:
        raise CalibrationError("size bucket fractions must sum to 1")
    if len(CDN_COUNT_BY_DECADE) != len(SIZE_BUCKET_FRACTIONS):
        raise CalibrationError("CDN count table must cover every decade")
    if len(DEVICES_PER_CELL_BY_DECADE) != len(SIZE_BUCKET_FRACTIONS):
        raise CalibrationError("device table must cover every decade")
    for name, ladder in CASE_STUDY_LADDERS.items():
        if list(ladder) != sorted(ladder):
            raise CalibrationError(f"ladder {name} must be ascending")
        if len(set(ladder)) != len(ladder):
            raise CalibrationError(f"ladder {name} has duplicate rungs")
    if len(CASE_STUDY_LADDERS["O"]) != PAPER.owner_ladder_size:
        raise CalibrationError("owner ladder size must match the paper")
    for syndicator in STORAGE_STUDY_SYNDICATORS:
        if syndicator not in CASE_STUDY_LADDERS:
            raise CalibrationError(f"unknown storage syndicator {syndicator}")
