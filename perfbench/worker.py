"""One workload process: a warm-up round, then a fixed number of timed rounds.

Started by ``run.py`` with the environment it pins (``PYTHONPATH`` at
the checkout's ``src``, ``PYTHONHASHSEED``, one BLAS/OpenMP thread).
Prints one JSON object on its last stdout line: every round's seconds,
items, check result and fingerprint, the set-up time, the peak resident
set and, with ``--trace 1``, the span rollup of the timed rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--src", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", default=None)
    return parser.parse_args(argv)


def check_source(src: str) -> None:
    """Refuse to measure a ``repro`` that is not the checkout's."""
    import repro

    here = os.path.realpath(os.path.dirname(repro.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"repro imported from {here}, not from {src}")


_TABLE = dict.fromkeys(range(251), 0)
_RAMP = np.linspace(0.0, 1.0, 150)


def calibrate() -> float:
    """Seconds for a fixed slice of work, none of it the program's.

    Half interpreter work on a small dict, half short numpy calls: the
    two kinds of work the workloads do.  It keeps no new memory, so it
    measures how fast the machine runs right now, not the state of the
    heap the round left behind.
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    table, acc = _TABLE, 0.0
    for i in range(40000):
        key = i % 251
        table[key] += i & 1023
    for _ in range(2000):
        acc += rng.uniform() + float(np.exp(_RAMP).sum())
    return time.perf_counter() - start


def one_round(workload, seed: int, work_dir: str, recorder=None) -> Dict[str, object]:
    """Prepare, time and check one round; a raise counts as a failure."""
    record: Dict[str, object] = {"seed": seed, "ok": False, "items": 0}
    inp = None
    try:
        inp = workload.prepare(seed, work_dir)
        gc.collect()
        before = calibrate()
        if recorder is not None:
            recorder.take()
        record["started_at"] = time.monotonic()
        start = time.perf_counter()
        out = workload.run(inp)
        end = time.perf_counter()
        record.update(
            start=start, end=end, seconds=end - start,
            calibration_s=(before + calibrate()) / 2,
        )
        if recorder is not None:
            record["spans"], record["counts"] = recorder.take()
        outcome = workload.verify(inp, out)
        record.update(
            items=outcome.items, fingerprint=outcome.fingerprint,
            problems=outcome.problems, ok=not outcome.problems,
            extra=outcome.counts,
        )
    except Exception:  # the round failed; the run goes on and reports it
        traceback.print_exc()
        record["problems"] = [traceback.format_exc().strip().splitlines()[-1]]
    finally:
        if inp is not None:
            workload.discard(inp)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    check_source(args.src)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        from repro import obs

        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        obs.configure(enabled=True)

    rounds = [one_round(workload, args.first_seed, args.work_dir, recorder)]
    rounds[0]["warmup"] = True
    if recorder is not None:
        obs.reset()
    setup_s = None
    traced: List[Dict[str, object]] = []
    for i in range(1, args.rounds + 1):
        record = one_round(workload, args.first_seed + i, args.work_dir, recorder)
        record["warmup"] = False
        if setup_s is None and "started_at" in record:
            setup_s = record["started_at"] - args.spawned_at
        if recorder is not None:
            traced.append(traced_round(record))
        rounds.append(record)

    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": [
            {k: v for k, v in r.items() if k not in ("spans", "counts", "start", "end", "started_at")}
            for r in rounds
        ],
    }
    if recorder is not None:
        recorder.unpatch()
        result["trace"] = summarize(traced)
        if args.spans_out:
            write_spans(args.spans_out, traced)
    print(json.dumps(result))
    return 0


def traced_round(record: Dict[str, object]) -> Dict[str, object]:
    """Keep a timed round's spans and program counters, then reset obs."""
    from repro import obs

    registry = obs.metrics()
    counts = dict(record.get("counts", {}))
    for name in ("dataset.columnar_hits", "dataset.row_fallbacks"):
        counts[name] = registry.counter(name).value
    for name, value in record.get("extra", {}).items():
        counts[name] = counts.get(name, 0.0) + value
    obs.reset()
    return {
        "spans": record.get("spans", []),
        "counts": counts,
        "window": (record.get("start", 0.0), record.get("end", 0.0)),
    }


def summarize(traced: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum the rollup over timed rounds."""
    from spans import rollup

    inclusive: Dict[str, float] = {}
    own: Dict[str, float] = {}
    layers: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    round_s = 0.0
    for entry in traced:
        start, end = entry["window"]
        round_s += end - start
        inc, slf, lay = rollup(entry["spans"], [entry["window"]])
        for target, source in ((inclusive, inc), (own, slf), (layers, lay), (counts, entry["counts"])):
            for key, value in source.items():
                target[key] = target.get(key, 0.0) + value
    return {
        "rounds": len(traced), "round_s": round_s, "inclusive": inclusive,
        "self": own, "layers": layers, "counts": counts,
    }


def write_spans(path: str, traced: List[Dict[str, object]]) -> None:
    """Write the timed rounds' spans: one JSON list per round."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for entry in traced:
            json.dump([[s.name, s.start, s.end, s.parent] for s in entry["spans"]], handle)
            handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
