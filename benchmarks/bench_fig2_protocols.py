"""Figs 2a-2c and the §4.1 RTMP numbers: streaming-protocol prevalence."""

from benchmarks.conftest import run_and_save
from repro.constants import Protocol
from repro.core.dimensions import PROTOCOL_COLUMN
from repro.core.prevalence import first_last, publisher_support_series


def test_fig2a_publisher_support(benchmark, eco_full):
    rows = run_and_save(benchmark, eco_full, "F2a")
    latest = rows[-1]
    # Paper: HLS 91%, DASH 43%, MSS ~40%, HDS 19% at the last snapshot.
    assert latest["HLS"] > 85
    assert 33 < latest["DASH"] < 55
    assert latest["HDS"] < 30


def test_fig2b_view_hour_shares(benchmark, eco_full):
    rows = run_and_save(benchmark, eco_full, "F2b")
    first, latest = rows[0], rows[-1]
    # Paper: DASH view-hours grow 3% -> 38%; HLS and DASH dominant.
    assert first["DASH"] < 10
    assert latest["DASH"] > 25
    assert latest["HLS"] + latest["DASH"] > 70


def test_fig2c_excluding_dash_drivers(benchmark, eco_full):
    rows = run_and_save(benchmark, eco_full, "F2c")
    # Paper: without the drivers, DASH stays under ~5% of view-hours.
    assert rows[-1]["DASH"] < 12


def test_s41_rtmp_decline(benchmark, eco_full):
    rows = run_and_save(benchmark, eco_full, "S41R")
    first = next(r for r in rows if r["snapshot"] == "first")
    latest = next(r for r in rows if r["snapshot"] == "latest")
    # Paper: 1.6% -> 0.1% of view-hours.
    assert first["rtmp_pct"] > latest["rtmp_pct"]
    assert latest["rtmp_pct"] < 0.5


def test_dash_support_growth_direction(benchmark, dataset_full):
    series = benchmark.pedantic(
        publisher_support_series,
        args=(dataset_full, PROTOCOL_COLUMN),
        rounds=1,
        iterations=1,
    )
    start, end = first_last(series, Protocol.DASH)
    assert end > start + 15  # paper: 10% -> 43%
