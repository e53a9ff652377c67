"""Ablations for the design choices DESIGN.md calls out.

1. Record weighting: weighted records vs exploded unit views — the
   analyses must be invariant, and the weighted form much cheaper.
2. Snapshot cadence: bi-weekly vs monthly sampling of the trends.
3. ABR algorithm: the Fig 15/16 QoE gap must persist across ABRs
   (it is a ladder effect, not an ABR artifact).
"""

import numpy as np
import pytest

from benchmarks.conftest import save_lines
from repro.core.dimensions import HTTP_PROTOCOL_COLUMN, PROTOCOL_COLUMN
from repro.core.prevalence import first_last, view_hour_share_series
from repro.constants import Protocol
from repro.delivery.network import default_isp_profiles
from repro.entities.ladder import BitrateLadder
from repro.playback.abr import BufferBasedAbr
from repro.playback.session import (
    CASE_STUDY_ABR,
    CASE_STUDY_SESSION,
    simulate_sessions,
)
from repro.synthesis import calibration as cal
from repro.telemetry.dataset import Dataset


def test_ablation_weighting_invariance(benchmark, eco_full):
    """Weighted analysis equals exploded analysis (on a capped slice)."""
    latest = eco_full.dataset.latest()
    capped = Dataset(
        [
            type(record).from_json_dict(
                {
                    **record.to_json_dict(),
                    "weight": max(1.0, round(min(record.weight, 20))),
                }
            )
            for record in latest.records[:800]
        ]
    )
    exploded = capped.explode()

    weighted_series = benchmark.pedantic(
        view_hour_share_series,
        args=(capped, HTTP_PROTOCOL_COLUMN),
        rounds=1,
        iterations=1,
    )
    exploded_series = view_hour_share_series(exploded, HTTP_PROTOCOL_COLUMN)
    snapshot = capped.latest_snapshot()
    for key, value in weighted_series[snapshot].items():
        assert exploded_series[snapshot][key] == pytest.approx(value)
    save_lines(
        "ablation_weighting",
        [
            "Weighted vs exploded records:",
            f"  weighted records: {len(capped)}",
            f"  exploded records: {len(exploded)}",
            "  protocol shares identical: yes",
        ],
    )


def test_ablation_snapshot_cadence(benchmark, eco_full):
    """Monthly (every other) snapshots preserve the trend endpoints."""
    dataset = eco_full.dataset
    snapshots = dataset.snapshots()
    monthly = set(snapshots[::2]) | {snapshots[-1]}
    thinned = dataset.filter(lambda r: r.snapshot in monthly)

    full_series = view_hour_share_series(dataset, PROTOCOL_COLUMN)
    thinned_series = benchmark.pedantic(
        view_hour_share_series,
        args=(thinned, PROTOCOL_COLUMN),
        rounds=1,
        iterations=1,
    )
    for protocol in (Protocol.HLS, Protocol.DASH):
        full_start, full_end = first_last(full_series, protocol)
        thin_start, thin_end = first_last(thinned_series, protocol)
        assert thin_start == pytest.approx(full_start, abs=1e-9)
        assert thin_end == pytest.approx(full_end, abs=1e-9)
    save_lines(
        "ablation_cadence",
        [
            "Bi-weekly vs monthly snapshot cadence:",
            f"  bi-weekly snapshots: {len(snapshots)}",
            f"  monthly snapshots:   {len(monthly)}",
            "  trend endpoints identical: yes",
        ],
    )


def test_ablation_qoe_gap_across_abrs(benchmark):
    """The owner-vs-syndicator bitrate gap persists for both ABRs."""
    owner = BitrateLadder.from_bitrates(cal.CASE_STUDY_LADDERS["O"])
    syndicator = BitrateLadder.from_bitrates(cal.CASE_STUDY_LADDERS["S7"])
    path = default_isp_profiles()["X"].path_to("A")

    def gap_for(abr):
        rng = np.random.default_rng(5)
        means = [path.sample_session_mean(rng) for _ in range(120)]
        results = simulate_sessions(
            [owner] * len(means) + [syndicator] * len(means),
            path,
            CASE_STUDY_SESSION,
            rng,
            abr=abr,
            session_means=means * 2,
        )
        rates = [r.average_bitrate_kbps for r in results]
        owner_rates, syn_rates = rates[: len(means)], rates[len(means):]
        return float(np.median(owner_rates) / np.median(syn_rates))

    throughput_gap = benchmark.pedantic(
        gap_for, args=(CASE_STUDY_ABR,), rounds=1, iterations=1
    )
    buffer_gap = gap_for(BufferBasedAbr())
    # The gap is a ladder effect: both ABR families show it.
    assert throughput_gap > 1.5
    assert buffer_gap > 1.5
    save_lines(
        "ablation_abr",
        [
            "Owner/syndicator median bitrate gap by ABR (paper: ~2.5x):",
            f"  throughput-based: {throughput_gap:.2f}x",
            f"  buffer-based:     {buffer_gap:.2f}x",
        ],
    )
