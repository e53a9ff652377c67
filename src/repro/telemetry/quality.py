"""Dataset quality assurance.

A measurement platform lives or dies by the integrity of its feed; §3
of the paper describes exactly which fields each view must carry and
how protocols are inferred from URLs.  This module audits a dataset the
way the platform's ingestion QA would: field-level validation beyond
the per-record invariants, cross-record coverage (does every publisher
appear in every snapshot? are URLs classifiable? are devices known?),
and a one-stop :func:`audit` report that analyses can gate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.dimensions import PROTOCOL_COLUMN
from repro.entities.device import default_registry
from repro.errors import DatasetError
from repro.telemetry.columnar import first_seen, holds
from repro.telemetry.dataset import Dataset


@dataclass
class QualityIssue:
    """One class of problem found during the audit."""

    code: str
    count: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] x{self.count}: {self.detail}"


@dataclass
class QualityReport:
    """Outcome of a dataset audit."""

    records: int
    publishers: int
    snapshots: int
    classifiable_url_fraction: float
    known_device_fraction: float
    app_views_with_sdk_fraction: float
    browser_views_with_ua_fraction: float
    publisher_snapshot_coverage: float
    issues: List[QualityIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no blocking issues were found."""
        return not any(issue.code.startswith("E") for issue in self.issues)

    def summary(self) -> str:
        lines = [
            f"records={self.records} publishers={self.publishers} "
            f"snapshots={self.snapshots}",
            f"classifiable URLs: {self.classifiable_url_fraction:.1%}",
            f"known devices:     {self.known_device_fraction:.1%}",
            f"app views w/ SDK:  {self.app_views_with_sdk_fraction:.1%}",
            f"browser views w/ UA: {self.browser_views_with_ua_fraction:.1%}",
            f"publisher-snapshot coverage: "
            f"{self.publisher_snapshot_coverage:.1%}",
        ]
        lines.extend(str(issue) for issue in self.issues)
        lines.append("status: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def audit(dataset: Dataset) -> QualityReport:
    """Audit a dataset against the §3 schema expectations.

    Issue codes starting with ``E`` are blocking (the analyses would be
    silently wrong); ``W`` codes are advisory.  URLs that classify to a
    protocol, and device models the default registry knows, must each
    cover 95% of the views.
    """
    if len(dataset) == 0:
        raise DatasetError("cannot audit an empty dataset")
    registry = default_registry()

    publisher_ids = dataset.publishers()
    total = len(dataset)
    unclassifiable = total - len(dataset.entries(PROTOCOL_COLUMN).rows)

    # Each distinct device model is looked up once, not once per view.
    devices = dataset.entries("device_model")
    known = holds(devices, total, registry.__contains__)
    app = holds(
        devices,
        total,
        lambda model: model in registry
        and registry.lookup(model).platform.is_app_based,
    )
    browser = known & ~app
    views_per_model = np.bincount(
        devices.codes, minlength=len(devices.values)
    )
    unknown_devices = {
        devices.values[code]: int(views_per_model[code])
        for code in first_seen(devices.codes).tolist()
        if devices.values[code] not in registry
    }
    has_sdk = holds(dataset.entries("sdk_name"), total, bool)
    has_user_agent = holds(dataset.entries("user_agent"), total, bool)
    app_views = int(app.sum())
    app_missing_sdk = int((app & ~has_sdk).sum())
    browser_views = int(browser.sum())
    browser_missing_ua = int((browser & ~has_user_agent).sum())
    syndication_dangling = int(
        (
            holds(dataset.entries("is_syndicated"), total, bool)
            & ~holds(
                dataset.entries("owner_id"), total, publisher_ids.__contains__
            )
        ).sum()
    )

    issues: List[QualityIssue] = []
    classifiable = 1.0 - unclassifiable / total
    if classifiable < 0.95:
        issues.append(
            QualityIssue(
                "E-URL",
                unclassifiable,
                f"only {classifiable:.1%} of URLs classify to a protocol",
            )
        )
    elif unclassifiable:
        issues.append(
            QualityIssue(
                "W-URL", unclassifiable, "some URLs did not classify"
            )
        )

    unknown_total = sum(unknown_devices.values())
    known_fraction = 1.0 - unknown_total / total
    if known_fraction < 0.95:
        worst = sorted(
            unknown_devices, key=lambda m: unknown_devices[m], reverse=True
        )[:3]
        issues.append(
            QualityIssue(
                "E-DEVICE",
                unknown_total,
                f"unknown device models, e.g. {worst}",
            )
        )
    elif unknown_total:
        issues.append(
            QualityIssue(
                "W-DEVICE", unknown_total, "some device models unknown"
            )
        )

    if app_missing_sdk:
        issues.append(
            QualityIssue(
                "E-SDK",
                app_missing_sdk,
                "app views missing SDK identification",
            )
        )
    if browser_missing_ua:
        issues.append(
            QualityIssue(
                "W-UA",
                browser_missing_ua,
                "browser views missing a user agent",
            )
        )
    if syndication_dangling:
        issues.append(
            QualityIssue(
                "E-SYND",
                syndication_dangling,
                "syndicated views without a resolvable owner",
            )
        )

    snapshots = dataset.snapshots()
    coverage_cells = len(publisher_ids) * len(snapshots)
    covered = sum(dataset.values_per_publisher("snapshot").values())
    coverage = covered / coverage_cells if coverage_cells else 0.0
    if coverage < 0.9:
        issues.append(
            QualityIssue(
                "W-COVERAGE",
                coverage_cells - covered,
                "publishers missing from many snapshots",
            )
        )

    return QualityReport(
        records=total,
        publishers=len(publisher_ids),
        snapshots=len(snapshots),
        classifiable_url_fraction=classifiable,
        known_device_fraction=known_fraction,
        app_views_with_sdk_fraction=(
            1.0 - app_missing_sdk / app_views if app_views else 1.0
        ),
        browser_views_with_ua_fraction=(
            1.0 - browser_missing_ua / browser_views
            if browser_views
            else 1.0
        ),
        publisher_snapshot_coverage=coverage,
        issues=issues,
    )
