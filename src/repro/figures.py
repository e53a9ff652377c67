"""Figure registry: every table and figure of the paper, by id.

Each entry maps an experiment id (see DESIGN.md §5) to a function
``(EcosystemResult) -> rows`` where rows are printable dictionaries.
The benchmark harness times these functions and prints their rows; the
CLI exposes them via ``repro figure <id>``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.constants import (
    HTTP_ADAPTIVE_PROTOCOLS,
    Platform,
    Protocol,
    TOP_CDN_NAMES,
)
from repro.core import buckets as buckets_mod
from repro.core import complexity as complexity_mod
from repro.core import counts as counts_mod
from repro.core import durations as durations_mod
from repro.core import prevalence as prevalence_mod
from repro.core import protocol_share as share_mod
from repro.core import storage as storage_mod
from repro.core import summary as summary_mod
from repro.core import syndication as syndication_mod
from repro.core import trends as trends_mod
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
    PROTOCOL_COLUMN,
    family_column,
)
from repro.entities.device import default_registry
from repro.errors import AnalysisError
from repro.packaging.manifest.detect import detect_protocol, sample_manifest_url
from repro.synthesis.catalogues import case_video_id
from repro.synthesis.calibration import (
    PAPER,
    QOE_COMBOS,
    QOE_SYNDICATOR_LABEL,
    EcosystemConfig,
)
from repro.synthesis.generator import EcosystemGenerator, EcosystemResult
from repro.telemetry.columnar import ColumnRef

Rows = List[Dict[str, object]]
FigureFn = Callable[[EcosystemResult], Rows]

_REGISTRY: Dict[str, FigureFn] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def figure(figure_id: str, description: str) -> Callable[[FigureFn], FigureFn]:
    """Register a figure-regenerating function under an id."""

    def decorator(fn: FigureFn) -> FigureFn:
        if figure_id in _REGISTRY:
            raise ValueError(f"duplicate figure id {figure_id!r}")
        _REGISTRY[figure_id] = fn
        _DESCRIPTIONS[figure_id] = description
        return fn

    return decorator


def figure_ids() -> List[str]:
    return sorted(_REGISTRY)


def describe(figure_id: str) -> str:
    return _DESCRIPTIONS[figure_id]


def run_figure(figure_id: str, result: EcosystemResult) -> Rows:
    try:
        fn = _REGISTRY[figure_id]
    except KeyError:
        raise AnalysisError(
            f"unknown figure {figure_id!r}; known: {', '.join(figure_ids())}"
        ) from None
    with obs.span("figure.run", figure=figure_id) as sp:
        obs.counter("figure.runs", figure=figure_id).inc()
        rows = fn(result)
        sp.set(rows=len(rows))
    return rows


def run_suite(
    config: EcosystemConfig,
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> Dict[str, Rows]:
    """Regenerate a set of figures (default: all) against one build.

    ``jobs > 1`` synthesizes the snapshots on a process pool; the build,
    and so every figure's rows, is byte-identical to the serial one.
    The figures then run in order in this process.  Returns
    ``{figure_id: rows}`` in the requested order.
    """
    targets = list(ids) if ids is not None else figure_ids()
    unknown = sorted(set(targets) - set(_REGISTRY))
    if unknown:
        raise AnalysisError(
            f"unknown figures {unknown}; known: {', '.join(figure_ids())}"
        )
    with obs.span("figures.suite", figures=len(targets), jobs=jobs):
        result = EcosystemGenerator(config).generate(jobs=jobs)
        return {
            figure_id: run_figure(figure_id, result) for figure_id in targets
        }


# ---------------------------------------------------------------------------
# The count, bucket and trend figures of each §4 dimension
# ---------------------------------------------------------------------------


def _count_rows(
    result: EcosystemResult, column: ColumnRef, label: str
) -> Rows:
    """Figs 3a/9a/12a: latest-snapshot publishers and view-hours by
    the number of values of ``column`` a publisher uses."""
    rows = counts_mod.count_distribution(result.dataset.latest(), column)
    return [
        {
            label: r.count,
            "percent_publishers": r.percent_publishers,
            "percent_view_hours": r.percent_view_hours,
        }
        for r in rows
    ]


def _bucket_rows(result: EcosystemResult, column: ColumnRef) -> Rows:
    """Figs 3b/9b/12b: those counts, bucketed by view-hours."""
    latest = result.dataset.latest()
    return buckets_mod.bucketed_counts(latest, column).stacked_rows()


def _trend_rows(result: EcosystemResult, column: ColumnRef) -> Rows:
    """Figs 3c/9c/12c: average and weighted-average count over time."""
    return [
        {
            "snapshot": p.snapshot.isoformat(),
            "average": p.average,
            "weighted_average": p.weighted_average,
        }
        for p in trends_mod.count_trend(result.dataset, column)
    ]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@figure("T1", "Table 1: manifest extension to protocol mapping")
def table1(result: EcosystemResult) -> Rows:
    rows: Rows = []
    for protocol in HTTP_ADAPTIVE_PROTOCOLS + (Protocol.RTMP,):
        url = sample_manifest_url(protocol, "Z53TiGRzq", "cdn-a.example.net")
        rows.append(
            {
                "protocol": protocol.display_name,
                "sample_url": url,
                "detected": detect_protocol(url).display_name,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# §4.1 Packaging (Figs 2-4)
# ---------------------------------------------------------------------------


@figure("F2a", "Fig 2a: % publishers per streaming protocol over time")
def fig2a(result: EcosystemResult) -> Rows:
    series = prevalence_mod.publisher_support_series(
        result.dataset, PROTOCOL_COLUMN
    )
    return prevalence_mod.series_rows(
        series, list(HTTP_ADAPTIVE_PROTOCOLS) + [Protocol.RTMP]
    )


@figure("F2b", "Fig 2b: % view-hours per streaming protocol over time")
def fig2b(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset, PROTOCOL_COLUMN
    )
    return prevalence_mod.series_rows(
        series, list(HTTP_ADAPTIVE_PROTOCOLS) + [Protocol.RTMP]
    )


@figure("F2c", "Fig 2c: % view-hours per protocol, excluding DASH drivers")
def fig2c(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset,
        PROTOCOL_COLUMN,
        exclude_publishers=result.dash_driver_ids,
    )
    return prevalence_mod.series_rows(series, list(HTTP_ADAPTIVE_PROTOCOLS))


@figure("F3a", "Fig 3a: publishers/view-hours by number of protocols")
def fig3a(result: EcosystemResult) -> Rows:
    return _count_rows(result, HTTP_PROTOCOL_COLUMN, "protocols")


@figure("F3b", "Fig 3b: number of protocols, bucketed by view-hours")
def fig3b(result: EcosystemResult) -> Rows:
    return _bucket_rows(result, HTTP_PROTOCOL_COLUMN)


@figure("F3c", "Fig 3c: average number of protocols over time")
def fig3c(result: EcosystemResult) -> Rows:
    return _trend_rows(result, HTTP_PROTOCOL_COLUMN)


@figure("F4", "Fig 4: CDF of per-publisher DASH/HLS view-hour share")
def fig4(result: EcosystemResult) -> Rows:
    latest = result.dataset.latest()
    rows: Rows = []
    for protocol in (Protocol.DASH, Protocol.HLS):
        cdf = share_mod.share_cdf(latest, protocol)
        xs, fs = cdf.as_series(n_points=21)
        for x, f in zip(xs, fs):
            rows.append(
                {
                    "protocol": protocol.display_name,
                    "share_pct": float(x),
                    "cdf": float(f),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# §4.2 Device playback (Figs 5-10)
# ---------------------------------------------------------------------------


@figure("F5", "Fig 5: the platform/device taxonomy")
def fig5(result: EcosystemResult) -> Rows:
    registry = default_registry()
    rows: Rows = []
    for platform, families in sorted(
        registry.taxonomy().items(), key=lambda item: item[0].value
    ):
        for family, models in sorted(families.items()):
            rows.append(
                {
                    "platform": platform.display_name,
                    "family": family,
                    "models": ", ".join(sorted(models)),
                }
            )
    return rows


@figure("F6a", "Fig 6a: % view-hours per platform over time")
def fig6a(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset, PLATFORM_COLUMN
    )
    return prevalence_mod.series_rows(series, list(Platform))


@figure("F6b", "Fig 6b: % view-hours per platform, excluding top 3")
def fig6b(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset,
        PLATFORM_COLUMN,
        exclude_publishers=result.top3_ids,
    )
    return prevalence_mod.series_rows(series, list(Platform))


@figure("F6c", "Fig 6c: % views per platform over time")
def fig6c(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset, PLATFORM_COLUMN, by_views=True
    )
    return prevalence_mod.series_rows(series, list(Platform))


@figure("F7", "Fig 7: % publishers supporting each platform over time")
def fig7(result: EcosystemResult) -> Rows:
    series = prevalence_mod.publisher_support_series(
        result.dataset, PLATFORM_COLUMN
    )
    return prevalence_mod.series_rows(series, list(Platform))


@figure("F8", "Fig 8: CDF of view duration per platform")
def fig8(result: EcosystemResult) -> Rows:
    cdfs = durations_mod.duration_cdfs(result.dataset.latest())
    rows: Rows = []
    for platform, cdf in sorted(cdfs.items(), key=lambda kv: kv[0].value):
        for threshold in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
            rows.append(
                {
                    "platform": platform.display_name,
                    "hours": threshold,
                    "cdf": cdf(threshold),
                }
            )
    return rows


@figure("F9a", "Fig 9a: publishers/view-hours by number of platforms")
def fig9a(result: EcosystemResult) -> Rows:
    return _count_rows(result, PLATFORM_COLUMN, "platforms")


@figure("F9b", "Fig 9b: number of platforms, bucketed by view-hours")
def fig9b(result: EcosystemResult) -> Rows:
    return _bucket_rows(result, PLATFORM_COLUMN)


@figure("F9c", "Fig 9c: average number of platforms over time")
def fig9c(result: EcosystemResult) -> Rows:
    return _trend_rows(result, PLATFORM_COLUMN)


def _family_rows(result: EcosystemResult, platform: Platform) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset, family_column(platform)
    )
    registry = default_registry()
    return prevalence_mod.series_rows(series, registry.families(platform))


@figure("F10a", "Fig 10a: % browser view-hours per player technology")
def fig10a(result: EcosystemResult) -> Rows:
    return _family_rows(result, Platform.BROWSER)


@figure("F10b", "Fig 10b: % mobile view-hours per OS")
def fig10b(result: EcosystemResult) -> Rows:
    return _family_rows(result, Platform.MOBILE)


@figure("F10c", "Fig 10c: % set-top view-hours per device family")
def fig10c(result: EcosystemResult) -> Rows:
    return _family_rows(result, Platform.SET_TOP)


# ---------------------------------------------------------------------------
# §4.3 Content distribution (Figs 11-12)
# ---------------------------------------------------------------------------


@figure("F11a", "Fig 11a: % publishers per top-5 CDN over time")
def fig11a(result: EcosystemResult) -> Rows:
    series = prevalence_mod.publisher_support_series(
        result.dataset, CDN_COLUMN
    )
    return prevalence_mod.series_rows(series, list(TOP_CDN_NAMES))


@figure("F11b", "Fig 11b: % view-hours per top-5 CDN over time")
def fig11b(result: EcosystemResult) -> Rows:
    series = prevalence_mod.view_hour_share_series(
        result.dataset, CDN_COLUMN
    )
    return prevalence_mod.series_rows(series, list(TOP_CDN_NAMES))


@figure("F12a", "Fig 12a: publishers/view-hours by number of CDNs")
def fig12a(result: EcosystemResult) -> Rows:
    return _count_rows(result, CDN_COLUMN, "cdns")


@figure("F12b", "Fig 12b: number of CDNs, bucketed by view-hours")
def fig12b(result: EcosystemResult) -> Rows:
    return _bucket_rows(result, CDN_COLUMN)


@figure("F12c", "Fig 12c: average number of CDNs over time")
def fig12c(result: EcosystemResult) -> Rows:
    return _trend_rows(result, CDN_COLUMN)


# ---------------------------------------------------------------------------
# §5 Complexity (Fig 13)
# ---------------------------------------------------------------------------


@figure("F13", "Fig 13: complexity metrics vs view-hours (slopes)")
def fig13(result: EcosystemResult) -> Rows:
    metrics = complexity_mod.publisher_complexity(
        result.dataset.latest(), result.catalogue_sizes
    )
    fits = complexity_mod.fit_complexity(metrics)
    return [
        {
            "metric": "management-plane combinations",
            "per_decade_factor": fits.combinations.per_decade_factor,
            "paper_factor": PAPER.combos_factor_per_decade,
            "r_squared": fits.combinations.r_squared,
            "p_value": fits.combinations.p_value,
        },
        {
            "metric": "protocol-titles",
            "per_decade_factor": fits.protocol_titles.per_decade_factor,
            "paper_factor": PAPER.protocol_titles_factor_per_decade,
            "r_squared": fits.protocol_titles.r_squared,
            "p_value": fits.protocol_titles.p_value,
        },
        {
            "metric": "unique SDKs",
            "per_decade_factor": fits.unique_sdks.per_decade_factor,
            "paper_factor": PAPER.unique_sdks_factor_per_decade,
            "r_squared": fits.unique_sdks.r_squared,
            "p_value": fits.unique_sdks.p_value,
        },
        {
            "metric": "max unique SDKs",
            "per_decade_factor": float(
                complexity_mod.max_unique_sdks(metrics)
            ),
            "paper_factor": PAPER.max_unique_sdks,
            "r_squared": float("nan"),
            "p_value": float("nan"),
        },
    ]


# ---------------------------------------------------------------------------
# §6 Syndication (Figs 14-18)
# ---------------------------------------------------------------------------


@figure("F14", "Fig 14: CDF across owners of % syndicators used")
def fig14(result: EcosystemResult) -> Rows:
    cdf = syndication_mod.syndication_cdf(result.dataset)
    xs, fs = cdf.as_series(n_points=21)
    rows: Rows = [
        {"pct_syndicators": float(x), "cdf": float(f)}
        for x, f in zip(xs, fs)
    ]
    summary = syndication_mod.prevalence_summary(result.dataset)
    rows.append(
        {
            "pct_syndicators": -1.0,
            "cdf": summary["pct_owners_with_syndicator"] / 100.0,
        }
    )
    return rows


def _qoe_rows(result: EcosystemResult, metric: str) -> Rows:
    if result.case_study is None:
        raise AnalysisError("dataset was generated without a case study")
    study = result.case_study
    rows: Rows = []
    for isp, cdn_name in QOE_COMBOS:
        comparison = syndication_mod.qoe_comparison(
            result.dataset,
            study.owner_id,
            study.publisher_id(QOE_SYNDICATOR_LABEL),
            case_video_id(),
            isp,
            cdn_name,
        )
        if metric == "bitrate":
            rows.append(
                {
                    "isp": isp,
                    "cdn": cdn_name,
                    "owner_median_kbps": comparison.owner_bitrate.median(),
                    "syndicator_median_kbps": (
                        comparison.syndicator_bitrate.median()
                    ),
                    "median_gain": comparison.median_bitrate_gain(),
                    "paper_gain": PAPER.owner_median_bitrate_gain,
                }
            )
        else:
            rows.append(
                {
                    "isp": isp,
                    "cdn": cdn_name,
                    "owner_p90_rebuffer": comparison.owner_rebuffer.quantile(
                        0.9
                    ),
                    "syndicator_p90_rebuffer": (
                        comparison.syndicator_rebuffer.quantile(0.9)
                    ),
                    "p90_reduction": comparison.p90_rebuffer_reduction(),
                    "paper_reduction": PAPER.owner_p90_rebuffer_reduction,
                }
            )
    return rows


@figure("F15", "Fig 15: owner vs syndicator average bitrate")
def fig15(result: EcosystemResult) -> Rows:
    return _qoe_rows(result, "bitrate")


@figure("F16", "Fig 16: owner vs syndicator rebuffering")
def fig16(result: EcosystemResult) -> Rows:
    return _qoe_rows(result, "rebuffer")


@figure("F17", "Fig 17: bitrate ladders of owner and syndicators")
def fig17(result: EcosystemResult) -> Rows:
    if result.case_study is None:
        raise AnalysisError("dataset was generated without a case study")
    study = result.case_study
    ladders = syndication_mod.ladders_for_video(
        result.dataset, case_video_id()
    )
    id_to_label = {pid: label for label, pid in study.labels.items()}
    rows: Rows = []
    for publisher_id, ladder in sorted(
        ladders.items(), key=lambda kv: id_to_label.get(kv[0], "~")
    ):
        rows.append(
            {
                "label": id_to_label.get(publisher_id, publisher_id),
                "rungs": len(ladder),
                "min_kbps": min(ladder),
                "max_kbps": max(ladder),
                "bitrates": " ".join(f"{b:.0f}" for b in ladder),
            }
        )
    return rows


@figure("F18", "Fig 18: CDN origin storage savings under dedup models")
def fig18(result: EcosystemResult) -> Rows:
    if result.case_study is None:
        raise AnalysisError("dataset was generated without a case study")
    rows: Rows = []
    for savings in storage_mod.figure18(result.case_study):
        rows.append(
            {
                "cdn": savings.cdn_name,
                "total_tb": savings.total_tb,
                "saved_tb_5pct": savings.saved_tb_5pct,
                "saved_pct_5pct": savings.saved_pct_5pct,
                "saved_tb_10pct": savings.saved_tb_10pct,
                "saved_pct_10pct": savings.saved_pct_10pct,
                "saved_tb_integrated": savings.saved_tb_integrated,
                "saved_pct_integrated": savings.saved_pct_integrated,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Prose statistics (§4.1 RTMP, §4.3 segregation, §4.4 summary)
# ---------------------------------------------------------------------------


@figure("S41R", "§4.1: RTMP view-hour share, first vs latest snapshot")
def s41_rtmp(result: EcosystemResult) -> Rows:
    shares = summary_mod.rtmp_share(result.dataset)
    return [
        {
            "snapshot": "first",
            "rtmp_pct": shares["first"],
            "paper": PAPER.rtmp_view_hour_share_first,
        },
        {
            "snapshot": "latest",
            "rtmp_pct": shares["latest"],
            "paper": PAPER.rtmp_view_hour_share_latest,
        },
    ]


@figure("S43L", "§4.3: live/VoD CDN segregation among multi-CDN publishers")
def s43_segregation(result: EcosystemResult) -> Rows:
    stats = summary_mod.live_vod_cdn_segregation(result.dataset.latest())
    return [
        {
            "stat": "vod-only CDN",
            "measured_pct": stats.pct_with_vod_only_cdn,
            "paper_pct": PAPER.pct_vod_only_cdn_publishers,
        },
        {
            "stat": "live-only CDN",
            "measured_pct": stats.pct_with_live_only_cdn,
            "paper_pct": PAPER.pct_live_only_cdn_publishers,
        },
    ]


@figure("S44", "§4.4: summary statistics across all dimensions")
def s44_summary(result: EcosystemResult) -> Rows:
    summaries = summary_mod.headline_summary(result.dataset)
    paper = {
        "protocols": PAPER.weighted_avg_protocols,
        "platforms": PAPER.weighted_avg_platforms,
        "cdns": PAPER.weighted_avg_cdns,
    }
    rows: Rows = []
    for name, summary in summaries.items():
        rows.append(
            {
                "dimension": name,
                "avg_count": summary.average_count,
                "weighted_avg_count": summary.weighted_average_count,
                "paper_weighted_avg": paper[name],
                "pct_vh_multi_instance": summary.pct_view_hours_multi,
            }
        )
    rows.append(
        {
            "dimension": "top-5 CDN view-hour share",
            "avg_count": summary_mod.top_cdn_concentration(
                result.dataset.latest()
            ),
            "weighted_avg_count": float("nan"),
            "paper_weighted_avg": PAPER.top5_view_hour_share,
            "pct_vh_multi_instance": float("nan"),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Extensions (the paper's stated future work; see DESIGN.md §5b)
# ---------------------------------------------------------------------------


@figure("X1", "Extension: evenness-aware diversity metrics")
def x1_diversity(result: EcosystemResult) -> Rows:
    from repro.core.diversity import (
        fit_diversity,
        mean_evenness,
        publisher_diversity,
    )

    profiles = publisher_diversity(result.dataset.latest())
    fits = fit_diversity(profiles)
    return [
        {
            "metric": "count-surface factor/decade",
            "value": fits.count_surface.per_decade_factor,
        },
        {
            "metric": "evenness-aware factor/decade",
            "value": fits.surface_index.per_decade_factor,
        },
        {"metric": "mean evenness ratio", "value": mean_evenness(profiles)},
        {
            "metric": "VH-weighted evenness ratio",
            "value": mean_evenness(profiles, weight_by_view_hours=True),
        },
    ]


@figure("X2", "Extension: syndicator QoE under integrated syndication")
def x2_integration_qoe(result: EcosystemResult) -> Rows:
    from repro.core.integrated import project_all_syndicators

    if result.case_study is None:
        raise AnalysisError("dataset was generated without a case study")
    projections = project_all_syndicators(result.case_study, sessions=60)
    rows: Rows = []
    for label in result.case_study.syndicator_labels:
        projection = projections[label]
        rows.append(
            {
                "syndicator": label,
                "before_kbps": projection.before_median_kbps,
                "after_kbps": projection.after_median_kbps,
                "bitrate_gain": projection.bitrate_gain,
                "rebuffer_reduction": projection.rebuffer_reduction,
            }
        )
    return rows


@figure("X3", "Extension: CDN accounting under API integration")
def x3_accounting(result: EcosystemResult) -> Rows:
    from repro.core.integrated import accounting_report
    from repro.synthesis.catalogues import case_video_id

    if result.case_study is None:
        raise AnalysisError("dataset was generated without a case study")
    id_to_label = {
        pid: label for label, pid in result.case_study.labels.items()
    }
    report = accounting_report(result.dataset, "A", case_video_id())
    total = sum(e.delivered_gigabytes for e in report.values())
    rows: Rows = []
    for publisher_id, entry in sorted(
        report.items(), key=lambda kv: -kv[1].delivered_gigabytes
    ):
        rows.append(
            {
                "publisher": id_to_label.get(publisher_id, publisher_id),
                "views": entry.views,
                "view_hours": entry.view_hours,
                "delivered_gb": entry.delivered_gigabytes,
                "share_pct": 100.0 * entry.delivered_gigabytes / total,
            }
        )
    return rows


@figure("X4", "Extension: dataset quality-assurance audit")
def x4_quality(result: EcosystemResult) -> Rows:
    from repro.telemetry.quality import audit

    report = audit(result.dataset)
    return [
        {"check": "records", "value": float(report.records)},
        {"check": "publishers", "value": float(report.publishers)},
        {
            "check": "classifiable URLs",
            "value": report.classifiable_url_fraction,
        },
        {"check": "known devices", "value": report.known_device_fraction},
        {
            "check": "app views with SDK",
            "value": report.app_views_with_sdk_fraction,
        },
        {
            "check": "publisher-snapshot coverage",
            "value": report.publisher_snapshot_coverage,
        },
        {"check": "status ok", "value": 1.0 if report.ok else 0.0},
    ]
