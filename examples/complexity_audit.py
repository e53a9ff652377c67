"""Management-complexity audit of a publisher fleet (§5).

Computes the paper's three complexity metrics for every publisher,
fits the Fig 13 log-log regressions, and then plays the measurement
platform's role: ingests the latest snapshot into a telemetry backend
and surfaces the worst (CDN, protocol, device) combinations — the
§5 failure-triaging workflow.

Run with::

    python examples/complexity_audit.py
"""

from repro.core.complexity import (
    fit_complexity,
    max_unique_sdks,
    publisher_complexity,
)
from repro.synthesis.generator import generate_default_dataset
from repro.telemetry.backend import TelemetryBackend


def main() -> None:
    print("Generating ecosystem...")
    result = generate_default_dataset(seed=2018, snapshot_limit=6)
    latest = result.dataset.latest()

    metrics = publisher_complexity(latest, result.catalogue_sizes)
    fits = fit_complexity(metrics)

    print("\nComplexity vs publisher size (Fig 13):")
    for name, fit, paper in (
        ("management-plane combinations", fits.combinations, 1.72),
        ("protocol-titles", fits.protocol_titles, 3.8),
        ("unique SDKs", fits.unique_sdks, 1.8),
    ):
        print(
            f"  {name:30s} x{fit.per_decade_factor:.2f} per view-hour "
            f"decade (paper x{paper}), r^2={fit.r_squared:.2f}, "
            f"p={fit.p_value:.1e}"
        )
    print(
        f"  every metric sub-linear: {fits.all_sublinear()}; largest "
        f"maintenance surface: {max_unique_sdks(metrics)} code bases "
        f"(paper: up to 85)"
    )

    # The five most complex publishers.
    ranked = sorted(
        metrics.values(), key=lambda m: m.combinations, reverse=True
    )
    print("\nMost complex management planes:")
    for m in ranked[:5]:
        print(
            f"  {m.publisher_id}: {m.combinations:4d} combinations, "
            f"{m.unique_sdks:3d} SDK/browser builds, "
            f"{m.protocol_titles:7d} protocol-titles"
        )

    # Failure triaging: worst combos by rebuffering, as Conviva does.
    backend = TelemetryBackend()
    backend.ingest_records(latest.records)
    print("\nWorst (CDN, protocol, device) combos by rebuffering:")
    for rollup in backend.worst_combos(n=5, min_views=1000):
        print(
            f"  CDN {rollup.cdn_name:4s} {str(rollup.protocol):16s} "
            f"{rollup.device_model:18s} "
            f"rebuffer {rollup.mean_rebuffer_ratio:.2%} over "
            f"{rollup.views:,.0f} views"
        )


if __name__ == "__main__":
    main()
