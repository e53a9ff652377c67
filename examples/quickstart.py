"""Quickstart: generate a dataset and run the headline analyses.

Generates a thinned synthetic dataset (12 of the 59 bi-weekly
snapshots), then reproduces the paper's headline findings: protocol
prevalence (Fig 2), platform shares (Fig 6a), CDN counts (Fig 12a) and
the §4.4 summary.

Run with::

    python examples/quickstart.py
"""

from repro.constants import Platform, Protocol
from repro.core.counts import count_distribution
from repro.core.dimensions import (
    CDN_COLUMN,
    HTTP_PROTOCOL_COLUMN,
    PLATFORM_COLUMN,
)
from repro.core.prevalence import (
    publisher_support_series,
    view_hour_share_series,
)
from repro.core.report import format_table
from repro.core.summary import headline_summary
from repro.synthesis.generator import generate_default_dataset


def main() -> None:
    print("Generating the synthetic ecosystem (12 snapshots)...")
    result = generate_default_dataset(seed=2018, snapshot_limit=12)
    dataset = result.dataset
    print(f"  {dataset}\n")

    # Fig 2a/2b: protocol prevalence at the study endpoints.
    support = publisher_support_series(dataset, HTTP_PROTOCOL_COLUMN)
    shares = view_hour_share_series(dataset, HTTP_PROTOCOL_COLUMN)
    first, last = dataset.first_snapshot(), dataset.latest_snapshot()
    print("Streaming protocols (Fig 2), first -> latest snapshot:")
    rows = []
    for protocol in (
        Protocol.HLS,
        Protocol.DASH,
        Protocol.MSS,
        Protocol.HDS,
    ):
        rows.append(
            {
                "protocol": protocol.display_name,
                "% publishers (first)": support[first].get(protocol, 0.0),
                "% publishers (latest)": support[last].get(protocol, 0.0),
                "% view-hours (latest)": shares[last].get(protocol, 0.0),
            }
        )
    print(format_table(rows), "\n")

    # Fig 6a: platform view-hour shares at the latest snapshot.
    platform_shares = view_hour_share_series(dataset, PLATFORM_COLUMN)
    print("Platform view-hour shares, latest snapshot (Fig 6a):")
    print(
        format_table(
            [
                {
                    "platform": platform.display_name,
                    "% view-hours": platform_shares[last].get(platform, 0.0),
                }
                for platform in Platform
            ]
        ),
        "\n",
    )

    # Fig 12a: CDN-count distribution.
    print("Number of CDNs per publisher, latest snapshot (Fig 12a):")
    print(
        format_table(
            [
                {
                    "cdns": row.count,
                    "% publishers": row.percent_publishers,
                    "% view-hours": row.percent_view_hours,
                }
                for row in count_distribution(dataset.latest(), CDN_COLUMN)
            ]
        ),
        "\n",
    )

    # §4.4 roll-up.
    print("Summary (§4.4) — weighted averages per dimension:")
    for name, summary in headline_summary(dataset).items():
        print(
            f"  {name:10s} avg {summary.average_count:4.2f}, "
            f"view-hour-weighted avg {summary.weighted_average_count:4.2f}, "
            f"multi-instance publishers hold "
            f"{summary.pct_view_hours_multi:.0f}% of view-hours"
        )


if __name__ == "__main__":
    main()
