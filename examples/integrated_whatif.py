"""What would integrated syndication change? (§6 future work)

Runs the extension analyses end to end: dataset QA, the evenness-aware
diversity metrics, per-syndicator QoE projections under API/app
integration, the CDN accounting split integration would require, and
the edge-cache consolidation effect.

Run with::

    python examples/integrated_whatif.py
"""

import numpy as np

from repro.core.diversity import (
    fit_diversity,
    mean_evenness,
    publisher_diversity,
)
from repro.core.integrated import owner_share_of_cdn, project_all_syndicators
from repro.delivery.edgesim import EdgeSyndicationStudy
from repro.entities.ladder import BitrateLadder
from repro.synthesis import calibration as cal
from repro.synthesis.catalogues import build_case_catalogue
from repro.synthesis.generator import generate_default_dataset
from repro.telemetry.quality import audit


def main() -> None:
    print("Generating ecosystem...")
    result = generate_default_dataset(seed=2018, snapshot_limit=6)
    dataset = result.dataset
    study = result.case_study
    assert study is not None

    # Gate on dataset quality, as a real pipeline would.
    report = audit(dataset)
    print(f"\nDataset QA: {'OK' if report.ok else 'FAILED'} "
          f"({report.records} records, "
          f"{report.classifiable_url_fraction:.0%} classifiable URLs)")

    # Diversity: does support breadth overstate live complexity?
    profiles = publisher_diversity(dataset.latest())
    fits = fit_diversity(profiles)
    print(
        "\nDiversity (evenness-aware complexity):\n"
        f"  raw count surface grows "
        f"{fits.count_surface.per_decade_factor:.2f}x per view-hour "
        "decade\n"
        f"  exercised (entropy) surface grows "
        f"{fits.surface_index.per_decade_factor:.2f}x\n"
        f"  mean evenness ratio: {mean_evenness(profiles):.2f} — "
        "support counts overstate live complexity"
    )

    # Per-syndicator QoE projection under integration.
    print("\nQoE projection under API/app integration (ISP X, CDN A):")
    projections = project_all_syndicators(study, sessions=60)
    for label in study.syndicator_labels:
        p = projections[label]
        marker = " <- biggest winner" if p.bitrate_gain > 2.0 else ""
        print(
            f"  {label:4s} {p.before_median_kbps:6.0f} -> "
            f"{p.after_median_kbps:6.0f} kbps "
            f"({p.bitrate_gain:4.2f}x){marker}"
        )

    # Accounting: split the shared CDN's bytes (the §6 open problem).
    share = owner_share_of_cdn(
        dataset.latest(), "A", study.owner_id
    )
    print(
        f"\nCDN A accounting: {share:.1%} of delivered bytes attribute "
        "to the owner's own clients;\nthe rest bills to syndicators and "
        "unrelated publishers sharing the CDN."
    )

    # Edge caches: integration consolidates duplicate entries.
    edge = EdgeSyndicationStudy(
        catalogue=build_case_catalogue(np.random.default_rng(1)),
        ladders={
            label: BitrateLadder.from_bitrates(
                cal.CASE_STUDY_LADDERS[label]
            )
            for label in ("O", "S4", "S9")
        },
        owner_id="O",
        cache_capacity_bytes=40e9,
    )
    results = edge.compare(np.random.default_rng(11), n_sessions=400)
    independent, integrated = (
        results["independent"],
        results["integrated"],
    )
    print(
        "\nEdge cache (same request stream, one edge):\n"
        f"  independent syndication: {independent.hit_ratio:5.1%} hits, "
        f"{independent.origin_gigabytes:6.1f} GB origin egress\n"
        f"  integrated syndication:  {integrated.hit_ratio:5.1%} hits, "
        f"{integrated.origin_gigabytes:6.1f} GB origin egress"
    )


if __name__ == "__main__":
    main()
