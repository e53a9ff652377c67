"""Per-publisher protocol share CDFs (Fig 4).

Among publishers that *support* a protocol, what fraction of each
publisher's view-hours does that protocol carry?  The paper's contrast:
half of HLS supporters put >=85% of their view-hours on HLS, while half
of DASH supporters put <=20% on DASH — DASH support is broad but
shallow outside the few large drivers.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.constants import Protocol
from repro.core.dimensions import HTTP_PROTOCOL_COLUMN
from repro.errors import AnalysisError
from repro.stats.cdf import ECDF
from repro.telemetry.columnar import code_of, first_seen
from repro.telemetry.dataset import Dataset


def per_publisher_protocol_share(
    dataset: Dataset, protocol: Protocol
) -> Dict[str, float]:
    """protocol's % of each supporting publisher's HTTP view-hours.

    Publishers appear in the order their first view over ``protocol``
    does, and each total adds view-hours record by record.
    """
    protocols = dataset.entries(HTTP_PROTOCOL_COLUMN)
    publishers = dataset.entries("publisher_id")
    publisher = publishers.codes[protocols.rows]
    view_hours = dataset.measure("view_hours")[protocols.rows]
    n = len(publishers.values)
    totals = np.bincount(publisher, weights=view_hours, minlength=n)
    mine = protocols.codes == code_of(protocols.values, protocol)
    by_protocol = np.bincount(
        publisher[mine], weights=view_hours[mine], minlength=n
    )
    shares = {
        publishers.values[p]: 100.0 * float(by_protocol[p]) / float(totals[p])
        for p in first_seen(publisher[mine]).tolist()
        if totals[p] > 0
    }
    if not shares:
        raise AnalysisError(
            f"no publisher uses {protocol.display_name} in this slice"
        )
    return shares


def share_cdf(dataset: Dataset, protocol: Protocol) -> ECDF:
    """CDF across supporting publishers of the protocol's share (Fig 4)."""
    return ECDF(per_publisher_protocol_share(dataset, protocol).values())


def supporter_medians(dataset: Dataset) -> Dict[Protocol, float]:
    """Median per-publisher share for each HTTP protocol with support."""
    medians: Dict[Protocol, float] = {}
    for protocol in (
        Protocol.HLS,
        Protocol.DASH,
        Protocol.MSS,
        Protocol.HDS,
    ):
        try:
            medians[protocol] = share_cdf(dataset, protocol).median()
        except AnalysisError:
            continue
    return medians
