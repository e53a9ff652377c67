"""The paper's analyses (§§4-6): the core contribution of the library.

Every figure and table in the paper's evaluation maps onto a function
here; ``repro.figures`` indexes them by figure id.
"""

from repro.core.dimensions import (
    CdnDimension,
    Dimension,
    FamilyDimension,
    PlatformDimension,
    ProtocolDimension,
    record_protocol,
)
from repro.core.prevalence import (
    publisher_support_series,
    view_hour_share_series,
    first_last,
)
from repro.core.counts import (
    CountRow,
    count_distribution,
    publisher_counts,
    share_with_count_above,
)
from repro.core.buckets import bucketed_counts, bucket_table
from repro.core.trends import TrendPoint, count_trend
from repro.core.durations import (
    duration_cdfs,
    long_view_fractions,
)
from repro.core.protocol_share import (
    per_publisher_protocol_share,
    share_cdf,
    supporter_medians,
)
from repro.core.complexity import (
    ComplexityFits,
    ComplexityMetrics,
    fit_complexity,
    max_unique_sdks,
    publisher_complexity,
)
from repro.core.syndication import (
    QoeComparison,
    ladders_for_video,
    prevalence_summary,
    qoe_comparison,
    syndication_cdf,
    syndicator_fraction_per_owner,
)
from repro.core.storage import (
    StorageSavings,
    build_case_origins,
    figure18,
    savings_for_cdn,
    tolerance_sweep,
)
from repro.core.summary import (
    ContentSplitStats,
    DimensionSummary,
    headline_summary,
    live_vod_cdn_segregation,
    rtmp_share,
    summarize_dimension,
    top_cdn_concentration,
)
from repro.core.diversity import (
    DiversityFits,
    DiversityProfile,
    effective_choices,
    fit_diversity,
    mean_evenness,
    publisher_diversity,
    shannon_entropy,
)
from repro.core.integrated import (
    AccountingEntry,
    QoeProjection,
    accounting_report,
    integrated_qoe_projection,
    owner_share_of_cdn,
    project_all_syndicators,
)
from repro.core.report import format_table

__all__ = [
    "CdnDimension",
    "Dimension",
    "FamilyDimension",
    "PlatformDimension",
    "ProtocolDimension",
    "record_protocol",
    "publisher_support_series",
    "view_hour_share_series",
    "first_last",
    "CountRow",
    "count_distribution",
    "publisher_counts",
    "share_with_count_above",
    "bucketed_counts",
    "bucket_table",
    "TrendPoint",
    "count_trend",
    "duration_cdfs",
    "long_view_fractions",
    "per_publisher_protocol_share",
    "share_cdf",
    "supporter_medians",
    "ComplexityFits",
    "ComplexityMetrics",
    "fit_complexity",
    "max_unique_sdks",
    "publisher_complexity",
    "QoeComparison",
    "ladders_for_video",
    "prevalence_summary",
    "qoe_comparison",
    "syndication_cdf",
    "syndicator_fraction_per_owner",
    "StorageSavings",
    "build_case_origins",
    "figure18",
    "savings_for_cdn",
    "tolerance_sweep",
    "ContentSplitStats",
    "DimensionSummary",
    "headline_summary",
    "live_vod_cdn_segregation",
    "rtmp_share",
    "summarize_dimension",
    "top_cdn_concentration",
    "format_table",
    "DiversityFits",
    "DiversityProfile",
    "effective_choices",
    "fit_diversity",
    "mean_evenness",
    "publisher_diversity",
    "shannon_entropy",
    "AccountingEntry",
    "QoeProjection",
    "accounting_report",
    "integrated_qoe_projection",
    "owner_share_of_cdn",
    "project_all_syndicators",
]
