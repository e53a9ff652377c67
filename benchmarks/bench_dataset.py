"""Dataset benchmark: row-at-a-time reference vs column-store aggregation.

Times the hot dataset aggregations on :class:`Dataset` (the column
store) and on :class:`~repro.testkit.reference.RowDataset` (the
row-at-a-time reference) over a scaled-up record set (default 10x the
6-snapshot build) and writes the timings and speedups to
``BENCH_dataset.json`` at the repo root.  CI runs this at small scale
and fails the build if the column store is ever slower than the
reference (speedup < 1).  Run directly::

    PYTHONPATH=src python benchmarks/bench_dataset.py [--scale 10]

The headline numbers are **steady-state query** timings: one dataset
per backend, memoized aggregation results dropped between repeats, the
interned column store kept.  That mirrors real usage — the figures
pipeline builds one dataset and runs ~20 analyses against it, so code
interning is a one-time cost per store, not per query.  The one-time
encode cost is measured separately and recorded in the payload
(``first_call``) so the amortization is visible, not hidden: once for a
stored field (publisher view-hours) and once for a derived column
(view-hours by protocol, which the store classifies once per distinct
URL and the reference once per record).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Type

from repro.core.dimensions import PROTOCOL_COLUMN
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord
from repro.testkit.reference import RowDataset

BENCH_PATH = Path(__file__).parent.parent / "BENCH_dataset.json"

SEED = 2018
SNAPSHOT_LIMIT = 6

#: The acceptance floor for the two headline aggregations (ISSUE: >=5x
#: at 10x scale); every other op only has to not be slower.
HEADLINE_OPS = ("publisher_view_hours", "view_hours_by_snapshot")
HEADLINE_MIN_SPEEDUP = 5.0

#: First-call ceiling: interning must amortize, not tax — the cold
#: columnar aggregation may not exceed a cold row scan by more than
#: this factor (the allowance absorbs timer noise at small scales).
FIRST_CALL_MAX_RATIO = 1.15


def _base_records(scale: int) -> Tuple[ViewRecord, ...]:
    config = EcosystemConfig(seed=SEED, snapshot_limit=SNAPSHOT_LIMIT)
    records = EcosystemGenerator(config).generate().dataset.records
    return records * scale


def _ops() -> Dict[str, Callable[[Dataset], object]]:
    return {
        "publisher_view_hours": lambda d: d.publisher_view_hours(),
        "view_hours_by_snapshot": lambda d: d.view_hours_by("snapshot"),
        "views_by_publisher": lambda d: d.views_by("publisher_id"),
        "distinct_video_ids": lambda d: d.distinct_video_ids(),
        "snapshot_slice_totals": lambda d: [
            d.for_snapshot(s).total_view_hours() for s in d.snapshots()
        ],
        "protocol_view_hours": lambda d: d.view_hours_by(PROTOCOL_COLUMN),
    }


#: Ops whose cold first call on a fresh dataset is timed and gated.
FIRST_CALL_OPS = ("publisher_view_hours", "protocol_view_hours")


def _time_op(
    dataset: Dataset,
    op: Callable[[Dataset], object],
    repeats: int,
) -> float:
    """Best-of-N steady-state run.

    The warm-up call interns any columns the op needs (a no-op on the
    reference, which memoizes nothing); each timed repeat first drops
    the dataset's memoized aggregation results (``_init_caches``) so
    both recompute the answer — the reference re-scans, the column
    store re-aggregates over its already-interned columns.
    """
    op(dataset)
    best = float("inf")
    for _ in range(repeats):
        dataset._init_caches()
        start = time.perf_counter()
        op(dataset)
        best = min(best, time.perf_counter() - start)
    return best


def _first_call_s(
    records: Tuple[ViewRecord, ...],
    dataset_cls: Type[Dataset],
    op: Callable[[Dataset], object],
    repeats: int,
) -> float:
    """Cold cost of ``op`` on a fresh dataset (for the column store this
    includes code interning and, for a derived column, classifying).

    Best of ``repeats`` fresh datasets: a single cold sample swings
    ~15% with scheduler noise, which is wider than the row-vs-columnar
    gap this number exists to track.
    """
    best = float("inf")
    for _ in range(repeats):
        dataset = dataset_cls(records)
        start = time.perf_counter()
        op(dataset)
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(scale: int, repeats: int) -> Dict[str, object]:
    records = _base_records(scale)
    row = RowDataset(records)
    col = Dataset(records)
    results: Dict[str, Dict[str, float]] = {}
    ops = _ops()
    for name, op in ops.items():
        row_s = _time_op(row, op, repeats)
        col_s = _time_op(col, op, repeats)
        results[name] = {
            "row_s": round(row_s, 6),
            "columnar_s": round(col_s, 6),
            "speedup": round(row_s / col_s, 2) if col_s > 0 else 0.0,
        }
        print(
            f"{name:24s} row {row_s * 1e3:9.2f} ms   "
            f"columnar {col_s * 1e3:9.2f} ms   "
            f"{results[name]['speedup']:8.2f}x"
        )
    return {
        "meta": {
            "seed": SEED,
            "snapshot_limit": SNAPSHOT_LIMIT,
            "scale": scale,
            "records": len(records),
            "repeats": repeats,
        },
        "first_call": {
            name: {
                "row_s": round(
                    _first_call_s(records, RowDataset, ops[name], repeats), 6
                ),
                "columnar_s": round(
                    _first_call_s(records, Dataset, ops[name], repeats), 6
                ),
            }
            for name in FIRST_CALL_OPS
        },
        "operations": results,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=int,
        default=10,
        help="record-set replication factor (default: 10)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per (op, backend); best is kept (default: 3)",
    )
    parser.add_argument(
        "--out",
        default=str(BENCH_PATH),
        help=f"output JSON path (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)
    if args.scale < 1 or args.repeats < 1:
        parser.error("--scale and --repeats must be >= 1")

    payload = run_bench(args.scale, args.repeats)
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out}")

    failures = []
    for name, stats in payload["operations"].items():
        floor = (
            HEADLINE_MIN_SPEEDUP
            if name in HEADLINE_OPS and args.scale >= 10
            else 1.0
        )
        if stats["speedup"] < floor:
            failures.append(f"{name}: {stats['speedup']}x < {floor}x")
    for name, first in payload["first_call"].items():
        if first["columnar_s"] > first["row_s"] * FIRST_CALL_MAX_RATIO:
            failures.append(
                f"first_call {name}: columnar {first['columnar_s']}s > "
                f"{FIRST_CALL_MAX_RATIO}x row {first['row_s']}s"
            )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
