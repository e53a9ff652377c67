"""Content distribution substrate: origins, edges, multi-CDN, networks.

§2/§4.3: publishers proactively push packaged content to CDN origin
servers; edges serve users and fetch misses from the origin; publishers
spread traffic across multiple CDNs, sometimes via a broker; one top
CDN uses anycast.  §6's storage-redundancy study runs against the
origin model here.
"""

from repro.delivery.origin import OriginServer
from repro.delivery.edge import EdgeCache
from repro.delivery.multicdn import (
    CdnBroker,
    FailoverOutcome,
    ResilientFetcher,
)
from repro.delivery.anycast import AnycastRouteModel
from repro.delivery.network import NetworkPath, IspProfile, default_isp_profiles
from repro.delivery.edgesim import EdgeSyndicationStudy, EdgeStudyResult

__all__ = [
    "OriginServer",
    "EdgeCache",
    "CdnBroker",
    "FailoverOutcome",
    "ResilientFetcher",
    "AnycastRouteModel",
    "NetworkPath",
    "IspProfile",
    "default_isp_profiles",
    "EdgeSyndicationStudy",
    "EdgeStudyResult",
]
