"""Management-complexity metrics and their size correlation (§5, Fig 13).

Three measures per publisher, computed from what telemetry observes:

* **management-plane combinations** — distinct (CDN, protocol, device
  model) triples, the failure-triaging search space;
* **protocol-titles** — protocols x distinct video titles, the
  packaging workload (title counts come from the publisher-metadata
  side channel when provided, since telemetry under-samples large
  catalogues — the paper makes the same under-estimate caveat in §3);
* **unique SDKs** — distinct (SDK, version) pairs plus distinct
  browsers, the playback-software maintenance surface.

Each is fitted against publisher view-hours on log-log axes; the paper
reports per-decade growth factors of 1.72x, 3.8x and 1.8x, all
sub-linear, with p-values below 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PROTOCOL_COLUMN,
)
from repro.errors import AnalysisError
from repro.stats.regression import LogLogFit, fit_loglog
from repro.telemetry.columnar import (
    distinct_pair_counts,
    first_seen,
    holds,
    record_codes,
)
from repro.telemetry.dataset import Dataset


@dataclass(frozen=True)
class ComplexityMetrics:
    """The §5 complexity measures for one publisher."""

    publisher_id: str
    view_hours: float
    combinations: int
    protocol_titles: int
    unique_sdks: int


def publisher_complexity(
    dataset: Dataset,
    catalogue_sizes: Optional[Mapping[str, int]] = None,
) -> Dict[str, ComplexityMetrics]:
    """Complexity metrics per publisher for a dataset slice.

    ``catalogue_sizes`` supplies true title counts per publisher; when
    absent, distinct video IDs observed in telemetry are used (an
    under-estimate, as §3 notes of the paper's own data).  Publishers
    appear in the order of their first view.
    """
    publishers = dataset.entries("publisher_id")
    if not len(publishers.rows):
        raise AnalysisError("dataset has no records")
    publisher = publishers.codes
    n = len(publishers.values)
    view_hours = np.bincount(
        publisher, weights=dataset.measure("view_hours"), minlength=n
    )
    combinations = _combinations(dataset, publisher, n)
    protocols = dataset.values_per_publisher(HTTP_PROTOCOL_COLUMN)
    titles = dataset.values_per_publisher("video_id")
    unique_sdks = _unique_sdks(dataset, publisher, n)

    metrics: Dict[str, ComplexityMetrics] = {}
    for p in first_seen(publisher).tolist():
        pid = publishers.values[p]
        title_count = titles.get(pid, 0)
        if catalogue_sizes is not None:
            title_count = catalogue_sizes.get(pid, title_count)
        metrics[pid] = ComplexityMetrics(
            publisher_id=pid,
            view_hours=float(view_hours[p]),
            combinations=int(combinations[p]),
            protocol_titles=max(protocols.get(pid, 0), 1) * title_count,
            unique_sdks=int(unique_sdks[p]),
        )
    return metrics


def _combinations(
    dataset: Dataset, publisher: np.ndarray, n: int
) -> np.ndarray:
    """Distinct (CDN, protocol, device model) triples per publisher
    code; a view whose protocol is undetectable counts as "unknown"."""
    cdns = dataset.entries(CDN_COLUMN)
    protocols = dataset.entries(PROTOCOL_COLUMN)
    devices = dataset.entries("device_model")
    unknown = len(protocols.values)
    protocol = np.full(len(dataset), unknown, dtype=np.int64)
    protocol[protocols.rows] = protocols.codes
    n_devices = len(devices.values)
    triples = (
        cdns.codes * (unknown + 1) + protocol[cdns.rows]
    ) * n_devices + devices.codes[cdns.rows]
    return distinct_pair_counts(
        publisher[cdns.rows], n,
        triples, len(cdns.values) * (unknown + 1) * n_devices,
    )


def _unique_sdks(
    dataset: Dataset, publisher: np.ndarray, n: int
) -> np.ndarray:
    """Per publisher code, distinct ``"<SDK>/<version>"`` labels of its
    app views plus distinct device models of its browser views.

    An app view has an SDK name; a browser view has none but a user
    agent.  A missing version reads ``?``.  Each distinct (SDK,
    version) pair is labelled once, and pairs that share a label count
    once.
    """
    size = len(dataset)
    names = dataset.entries("sdk_name")
    versions = dataset.entries("sdk_version")
    devices = dataset.entries("device_model")
    app = holds(names, size, bool)
    browser = ~app & holds(dataset.entries("user_agent"), size, bool)

    stride = len(versions.values) + 1
    pairs, pair_codes = np.unique(
        record_codes(names, size)[app] * stride
        + record_codes(versions, size)[app] + 1,
        return_inverse=True,
    )
    version_values = versions.values + (None,)  # OUT_OF_SCOPE reads None
    labels: Dict[str, int] = {}
    label_codes = [
        labels.setdefault(
            f"{names.values[pair // stride]}/"
            f"{version_values[pair % stride - 1] or '?'}",
            len(labels),
        )
        for pair in pairs.tolist()
    ]
    sdks = distinct_pair_counts(
        publisher[app], n,
        np.array(label_codes, dtype=np.int64)[pair_codes], len(labels),
    )
    # A browser view's missing device model (code -1) counts as a model.
    models = distinct_pair_counts(
        publisher[browser], n,
        record_codes(devices, size)[browser] + 1, len(devices.values) + 1,
    )
    return sdks + models


@dataclass(frozen=True)
class ComplexityFits:
    """Fig 13's three regressions."""

    combinations: LogLogFit
    protocol_titles: LogLogFit
    unique_sdks: LogLogFit

    def all_sublinear(self) -> bool:
        return (
            self.combinations.is_sublinear
            and self.protocol_titles.is_sublinear
            and self.unique_sdks.is_sublinear
        )

    def all_significant(self, alpha: float = 0.05) -> bool:
        return (
            self.combinations.p_value < alpha
            and self.protocol_titles.p_value < alpha
            and self.unique_sdks.p_value < alpha
        )


def fit_complexity(
    metrics: Mapping[str, ComplexityMetrics]
) -> ComplexityFits:
    """Fit all three log-log regressions against view-hours."""
    rows = [
        m
        for m in metrics.values()
        if m.view_hours > 0
        and m.combinations > 0
        and m.protocol_titles > 0
        and m.unique_sdks > 0
    ]
    if len(rows) < 3:
        raise AnalysisError("need at least three publishers to fit")
    vh = [m.view_hours for m in rows]
    return ComplexityFits(
        combinations=fit_loglog(vh, [m.combinations for m in rows]),
        protocol_titles=fit_loglog(vh, [m.protocol_titles for m in rows]),
        unique_sdks=fit_loglog(vh, [m.unique_sdks for m in rows]),
    )


def max_unique_sdks(metrics: Mapping[str, ComplexityMetrics]) -> int:
    """Largest maintenance surface — the paper's '85 code bases'."""
    if not metrics:
        raise AnalysisError("no metrics")
    return max(m.unique_sdks for m in metrics.values())
