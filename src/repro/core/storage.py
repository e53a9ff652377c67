"""CDN origin storage redundancy (§6, Fig 18).

Builds origin servers for the case-study catalogue — the owner and two
syndicators push their own encodings to the CDNs they use — and
evaluates three models: bitrate dedup within a 5% tolerance, within a
10% tolerance, and integrated syndication (everyone served from the
owner's copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

from repro.delivery.origin import OriginServer
from repro.errors import AnalysisError
from repro.synthesis import calibration as cal
from repro.synthesis.syndication import CaseStudy
from repro.units import bytes_to_tb

#: Dedup tolerances of the Fig 18 ablation, around the paper's 5% and 10%.
SWEEP_TOLERANCES = (0.0, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20)

Server = TypeVar("Server")


@dataclass(frozen=True)
class StorageSavings:
    """One bar group of Fig 18, for one common CDN."""

    cdn_name: str
    total_tb: float
    saved_tb_5pct: float
    saved_pct_5pct: float
    saved_tb_10pct: float
    saved_pct_10pct: float
    saved_tb_integrated: float
    saved_pct_integrated: float


def build_case_origins(
    case_study: CaseStudy,
    server: Callable[[str], Server] = OriginServer,
) -> Dict[str, Server]:
    """Push the case-study catalogue to every CDN its publishers use.

    The owner pushes to the common CDNs; each storage-study syndicator
    pushes to the common CDNs plus its own extra CDN, mirroring the
    paper's placement (owner on A+B; one syndicator also on C, the
    other also on D).  ``server`` makes each origin from its CDN name;
    the ``origin-vs-reference`` oracle passes the reference server.
    """
    origins: Dict[str, Server] = {}

    def origin(cdn_name: str) -> Server:
        if cdn_name not in origins:
            origins[cdn_name] = server(cdn_name)
        return origins[cdn_name]

    owner_ladder = case_study.ladder("O")
    for cdn_name in cal.STORAGE_STUDY_COMMON_CDNS + cal.OWNER_EXTRA_CDNS:
        origin(cdn_name).push_catalogue(
            case_study.owner_id, case_study.catalogue, owner_ladder
        )
    for label in cal.STORAGE_STUDY_SYNDICATORS:
        publisher_id = case_study.publisher_id(label)
        ladder = case_study.ladder(label)
        extra = cal.SYNDICATOR_EXTRA_CDNS.get(label, ())
        for cdn_name in cal.STORAGE_STUDY_COMMON_CDNS + extra:
            origin(cdn_name).push_catalogue(
                publisher_id, case_study.catalogue, ladder
            )
    return origins


def savings_for_cdn(
    origin: OriginServer, owner_id: str
) -> StorageSavings:
    """Evaluate the three Fig 18 models against one origin."""
    total = origin.total_bytes()
    if total <= 0:
        raise AnalysisError(f"origin {origin.cdn_name} is empty")
    saved_5, pct_5 = origin.savings(0.05)
    saved_10, pct_10 = origin.savings(0.10)
    saved_int, pct_int = origin.integrated_savings(owner_id)
    return StorageSavings(
        cdn_name=origin.cdn_name,
        total_tb=bytes_to_tb(total),
        saved_tb_5pct=bytes_to_tb(saved_5),
        saved_pct_5pct=pct_5,
        saved_tb_10pct=bytes_to_tb(saved_10),
        saved_pct_10pct=pct_10,
        saved_tb_integrated=bytes_to_tb(saved_int),
        saved_pct_integrated=pct_int,
    )


def figure18(case_study: CaseStudy) -> List[StorageSavings]:
    """Fig 18 rows: savings on each common CDN."""
    origins = build_case_origins(case_study)
    return [
        savings_for_cdn(origins[cdn_name], case_study.owner_id)
        for cdn_name in cal.STORAGE_STUDY_COMMON_CDNS
    ]


def tolerance_sweep(case_study: CaseStudy) -> List[Tuple[float, float]]:
    """Ablation: savings percentage at each of :data:`SWEEP_TOLERANCES`.

    Extends Fig 18 beyond the paper's two tolerance points; evaluated
    on the first common CDN (identical content sits on both).
    """
    origins = build_case_origins(case_study)
    origin = origins[cal.STORAGE_STUDY_COMMON_CDNS[0]]
    sweep: List[Tuple[float, float]] = []
    for tolerance in SWEEP_TOLERANCES:
        _, pct = origin.savings(tolerance)
        sweep.append((tolerance, pct))
    return sweep
