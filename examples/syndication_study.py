"""The §6 syndication case study, end to end.

Reproduces the paper's syndication analysis on a generated ecosystem:
the prevalence CDF (Fig 14), the bitrate-ladder divergence for one
popular video (Fig 17), the owner-vs-syndicator QoE gap (Figs 15/16),
and the CDN origin-storage savings under dedup and integrated
syndication (Fig 18).

Run with::

    python examples/syndication_study.py
"""

from repro.core.report import format_table
from repro.core.storage import figure18, tolerance_sweep
from repro.core.syndication import (
    ladders_for_video,
    prevalence_summary,
    qoe_comparison,
)
from repro.synthesis.catalogues import case_video_id
from repro.synthesis.generator import generate_default_dataset


def main() -> None:
    print("Generating ecosystem with the case-study catalogue...")
    result = generate_default_dataset(seed=2018, snapshot_limit=8)
    dataset = result.dataset
    study = result.case_study
    assert study is not None

    # Fig 14: prevalence of syndication.
    summary = prevalence_summary(dataset)
    print(
        f"\nSyndication prevalence (Fig 14, paper: >80% / ~20%):\n"
        f"  owners with at least one syndicator: "
        f"{summary['pct_owners_with_syndicator']:.0f}%\n"
        f"  owners reaching a third of syndicators: "
        f"{summary['pct_owners_third_of_syndicators']:.0f}%"
    )

    # Fig 17: ladder divergence for the popular video.
    labels = {pid: label for label, pid in study.labels.items()}
    ladders = ladders_for_video(dataset, case_video_id())
    print("\nBitrate ladders for the case-study video (Fig 17):")
    rows = []
    for publisher_id, ladder in sorted(
        ladders.items(),
        key=lambda kv: (len(labels.get(kv[0], "zz")), labels.get(kv[0])),
    ):
        rows.append(
            {
                "publisher": labels.get(publisher_id, publisher_id),
                "rungs": len(ladder),
                "min kbps": min(ladder),
                "max kbps": max(ladder),
            }
        )
    print(format_table(rows, float_digits=0))

    # Figs 15/16: QoE gap on both (ISP, CDN) combinations.
    print("\nOwner vs syndicator S7 QoE (Figs 15/16):")
    for isp, cdn in (("X", "A"), ("Y", "B")):
        comparison = qoe_comparison(
            dataset,
            study.owner_id,
            study.publisher_id("S7"),
            case_video_id(),
            isp,
            cdn,
        )
        print(
            f"  ISP {isp} / CDN {cdn}: owner median bitrate "
            f"{comparison.owner_bitrate.median():5.0f} kbps vs "
            f"{comparison.syndicator_bitrate.median():5.0f} kbps "
            f"({comparison.median_bitrate_gain():.1f}x, paper ~2.5x); "
            f"p90 rebuffering reduced "
            f"{comparison.p90_rebuffer_reduction():.0%} (paper ~40%)"
        )

    # Fig 18: storage redundancy.
    print("\nCDN origin storage (Fig 18, paper: 1916 TB; 16.5%/45.2%/65.6%):")
    for savings in figure18(study):
        print(
            f"  CDN {savings.cdn_name}: {savings.total_tb:6.0f} TB stored; "
            f"dedup@5% saves {savings.saved_tb_5pct:5.0f} TB "
            f"({savings.saved_pct_5pct:4.1f}%), "
            f"dedup@10% saves {savings.saved_tb_10pct:5.0f} TB "
            f"({savings.saved_pct_10pct:4.1f}%), "
            f"integrated saves {savings.saved_tb_integrated:5.0f} TB "
            f"({savings.saved_pct_integrated:4.1f}%)"
        )

    # Beyond the paper: the full tolerance sweep.
    print("\nDedup savings vs tolerance (extension of Fig 18):")
    for tolerance, pct in tolerance_sweep(study):
        bar = "#" * int(pct / 2)
        print(f"  {tolerance * 100:4.1f}%  {pct:5.1f}%  {bar}")


if __name__ == "__main__":
    main()
