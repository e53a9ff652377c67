"""Benchmark entry point: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from the
checkout's ``src/`` (pure Python: nothing to build).  Each workload runs
in its own processes (``worker.py``) with ``PYTHONHASHSEED`` pinned and
one BLAS/OpenMP thread.

``--trace 0`` starts ``SETUPS`` workload processes one after another;
each does a warm-up round and its share of the timed rounds, which
together take about ``--seconds`` on the reference box.  The round
count depends only on ``--seconds``, so every run at one seed does the
same rounds.  It reports:

* ``items_per_s``: median over timed rounds of items / round seconds;
* ``setup_s``: median over processes of process start to first timed
  round (imports, input building, the warm-up round);
* ``peak_rss_mb``: median over processes of the peak resident set.

The box this runs on shares its cores, and its speed drifts by tens
of percent within a minute.  So around every round the worker times a
fixed calibration loop (``worker.calibrate``), and both times are
reported at the reference speed: a round's seconds are scaled by
``CALIBRATION_REF_S`` over the mean of its two calibrations, and a
process's set-up by ``CALIBRATION_REF_S`` over its median calibration.
The loop is the benchmark's own code, so a change to the program moves
these metrics exactly as much as it moves the unscaled ones, which the
human-readable lines print too.

``--trace 1`` runs the same rounds once untraced and once with spans
(``spans.py``), checks that both print the same fingerprints, and
reports the per-layer metrics and ``trace.overhead_pct``.

The last stdout line is the JSON result; every line before it is for
people: one line per round with its seed, seconds, items, check result
and output fingerprint, then medians, quartiles and (traced) the
self-time rollup by layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from spans import LAYER_ORDER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
#: Calibration time (``worker.calibrate``) of a quiet reference box.
CALIBRATION_REF_S = 0.0115
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("longitudinal", "qoe-whatif", "ingest-persist", "self-check")
#: Wall seconds of one round, input building included, on the reference
#: box; ``--seconds`` becomes a fixed round count with it.
NOMINAL_ROUND_S = {
    "longitudinal": 0.7, "qoe-whatif": 3.0, "ingest-persist": 0.85, "self-check": 0.6,
}
FIGURE_IDS = (
    "F10a", "F10b", "F10c", "F11a", "F11b", "F12a", "F12b", "F12c", "F13",
    "F14", "F15", "F16", "F17", "F18", "F2a", "F2b", "F2c", "F3a", "F3b",
    "F3c", "F4", "F5", "F6a", "F6b", "F6c", "F7", "F8", "F9a", "F9b", "F9c",
    "S41R", "S43L", "S44", "T1", "X1", "X2", "X3", "X4",
)
END_TO_END = (("items_per_s", "items/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    s, n = "s", "count"
    metrics = [
        ("synthesis.generate_s", s), ("synthesis.plan_s", s),
        ("synthesis.snapshot_s", s), ("synthesis.records", n),
        ("synthesis.us_per_record", "us"), ("synthesis.case_study_s", s),
        ("playback.session_s", s), ("playback.sessions", n),
        ("playback.chunks", n), ("playback.ns_per_chunk", "ns"),
        ("playback.projection_s", s),
        ("delivery.chunk_sampling_s", s), ("delivery.chunk_sampling_calls", n),
        ("dataset.build_s", s), ("dataset.builds", n),
        ("columnar.intern_s", s), ("columnar.columns", n),
        ("dataset.filter_s", s), ("dataset.filter_calls", n),
        ("dataset.columnar_hits", n), ("dataset.row_fallbacks", n),
        ("dataset.save_s", s), ("dataset.load_s", s),
        ("dataset.saved_bytes", "B"), ("dataset.save_us_per_record", "us"),
        ("dataset.load_us_per_record", "us"), ("backend.rollups_s", s),
        ("ingest.batch_s", s), ("ingest.events", n), ("ingest.us_per_event", "us"),
        ("ingest.accepted", n), ("ingest.deduped", n), ("ingest.quarantined", n),
        ("ingest.records", n), ("ingest.record_yield", "ratio"),
        ("figures.suite_s", s), ("figures.self_s", s),
    ]
    metrics += [(f"figure.{fid}_s", s) for fid in FIGURE_IDS]
    metrics += [
        ("lint.run_s", s), ("lint.files", n), ("lint.findings", n),
        ("lint.us_per_line", "us"), ("analysis.parse_s", s),
        ("analysis.callgraph_s", s), ("analysis.effects_s", s),
        ("analysis.rules_s", s), ("analysis.call_edges", n),
        ("analysis.findings", n), ("trace.overhead_pct", "%"),
    ]
    metrics += [(f"share.{layer}_pct", "%") for layer in LAYER_ORDER]
    return metrics


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def round_plan(seconds: int, nominal_round_s: float, processes: int) -> List[int]:
    """Timed rounds per process: ``seconds`` worth in total, split evenly."""
    total = max(processes, round(seconds / nominal_round_s))
    return [total // processes + (i < total % processes) for i in range(processes)]


def child_env(src: str, work: str) -> Dict[str, str]:
    env = dict(os.environ)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", TMPDIR=tmp)
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(
    workload: str, first_seed: int, rounds: int, trace: int,
    src: str, work: str, deadline: float, spans_out: Optional[str] = None,
) -> Dict[str, object]:
    """One workload process, waited for; its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a workload process")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--first-seed", str(first_seed),
        "--rounds", str(rounds), "--trace", str(trace), "--src", src,
        "--work-dir", work, "--spawned-at", repr(time.monotonic()),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        done = subprocess.run(
            cmd, env=child_env(src, work), stdout=subprocess.PIPE,
            text=True, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise ChildFailed(f"{workload} process ran past the deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} process exited with {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_rounds(label: str, results: List[Dict[str, object]]) -> None:
    for index, result in enumerate(results):
        for r in result["rounds"]:
            kind = "warmup" if r["warmup"] else "timed"
            secs = r.get("seconds")
            status = "ok" if r["ok"] else "FAILED " + "; ".join(r.get("problems", []))
            print(
                f"round {label}{index} seed={r['seed']} {kind} "
                f"seconds={secs if secs is not None else 'nan'} items={r['items']} "
                f"fingerprint={r.get('fingerprint', '-')} {status}"
            )


def speed(result: Dict[str, object]) -> float:
    """How much slower than the reference the machine ran for one process:
    its median calibration time over ``CALIBRATION_REF_S``."""
    samples = [r["calibration_s"] for r in result["rounds"] if "calibration_s" in r]
    return statistics.median(samples) / CALIBRATION_REF_S if samples else 1.0


def rates(results: List[Dict[str, object]], normalize: bool = True) -> List[float]:
    """Items per second of every good timed round, at reference speed:
    each round is scaled by the calibrations taken around it."""
    return [
        r["items"] / r["seconds"] * (r["calibration_s"] / CALIBRATION_REF_S if normalize else 1.0)
        for result in results for r in result["rounds"]
        if not r["warmup"] and r.get("seconds") and r["ok"]
    ]


def tally(results: List[Dict[str, object]]) -> Tuple[int, int]:
    rounds = [r for result in results for r in result["rounds"]]
    return len(rounds), sum(1 for r in rounds if not r["ok"])


def end_to_end(args, src: str, work: str, deadline: float) -> Dict[str, object]:
    results = []
    first = args.seed
    for rounds in round_plan(args.seconds, NOMINAL_ROUND_S[args.workload], SETUPS):
        results.append(run_child(args.workload, first, rounds, 0, src, work, deadline))
        first += rounds + 1
    print_rounds("p", results)
    ips = rates(results)
    setups = [r["setup_s"] / speed(r) for r in results if r["setup_s"] is not None]
    secs = [r["seconds"] for res in results for r in res["rounds"] if not r["warmup"] and r.get("seconds")]
    attempted, failed = tally(results)
    if not ips or not setups:
        return {"correct": False, "attempted": attempted, "failed": failed or 1, "metrics": {}}
    q1, med, q3 = quartiles(ips)
    print(f"items_per_s median={med:.6g} q1={q1:.6g} q3={q3:.6g} rounds={len(ips)}")
    print(f"unnormalized items_per_s median={statistics.median(rates(results, False)):.6g} "
          f"speed factors={[round(speed(r), 4) for r in results]}")
    if secs:
        q1, med, q3 = quartiles(secs)
        print(f"round_s median={med:.6g} q1={q1:.6g} q3={q3:.6g}")
    print(f"setup_s per process={setups} unnormalized={[r['setup_s'] for r in results]}")
    print(f"stamp python={results[0]['python']} numpy={results[0]['numpy']} "
          f"cpu_count={os.cpu_count()} seed={args.seed}")
    values = {
        "items_per_s": statistics.median(ips),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced(args, src: str, work: str, deadline: float) -> Dict[str, object]:
    rounds = max(2, sum(round_plan(args.seconds, NOMINAL_ROUND_S[args.workload], 1)) // 2)
    spans_out = os.path.join(ROOT, ".perfbench", "spans", f"{args.workload}-{args.seed}.jsonl")
    plain = run_child(args.workload, args.seed, rounds, 0, src, work, deadline)
    spanned = run_child(args.workload, args.seed, rounds, 1, src, work, deadline, spans_out)
    print_rounds("u", [plain])
    print_rounds("t", [spanned])
    attempted, failed = tally([plain, spanned])
    prints = [[r.get("fingerprint") for r in res["rounds"]] for res in (plain, spanned)]
    same = prints[0] == prints[1]
    if not same:
        print("traced fingerprints differ from untraced ones")
    untraced_ips, traced_ips = rates([plain]), rates([spanned])
    if not untraced_ips or not traced_ips:
        return {"correct": False, "attempted": attempted, "failed": failed or 1, "metrics": {}}
    overhead = 100.0 * (1.0 - statistics.median(traced_ips) / statistics.median(untraced_ips))
    values = layer_metrics(spanned["trace"], overhead)
    print_rollup(args.workload, spanned["trace"])
    return {
        "correct": failed == 0 and same, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()
        },
    }


def layer_metrics(trace: Dict[str, object], overhead_pct: float) -> Dict[str, float]:
    """Per-layer metrics as means per timed round of the traced process."""
    rounds = trace["rounds"]
    own, inc, counts = trace["self"], trace["inclusive"], trace["counts"]

    def t(name: str) -> float:
        return own.get(name, 0.0) / rounds

    def c(name: str) -> float:
        return counts.get(name, 0.0) / rounds

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    values = {
        "synthesis.generate_s": inc.get("synthesis.generate", 0.0) / rounds,
        "synthesis.plan_s": t("synthesis.generate"),
        "synthesis.snapshot_s": t("synthesis.snapshot"),
        "synthesis.records": c("synthesis.records"),
        "synthesis.us_per_record": ratio(
            t("synthesis.snapshot"), c("synthesis.snapshot_records"), 1e6),
        "synthesis.case_study_s": t("synthesis.case_study"),
        "playback.session_s": t("playback.session"),
        "playback.sessions": c("playback.session.calls"),
        "playback.chunks": c("playback.chunks"),
        "playback.ns_per_chunk": ratio(t("playback.session"), c("playback.chunks"), 1e9),
        "playback.projection_s": t("playback.projection"),
        "delivery.chunk_sampling_s": t("delivery.chunk_sampling"),
        "delivery.chunk_sampling_calls": c("delivery.chunk_sampling.calls"),
        "dataset.build_s": t("dataset.build"),
        "dataset.builds": c("dataset.build.calls"),
        "columnar.intern_s": t("columnar.intern"),
        "columnar.columns": c("columnar.intern.calls"),
        "dataset.filter_s": t("dataset.filter"),
        "dataset.filter_calls": c("dataset.filter.calls"),
        "dataset.columnar_hits": c("dataset.columnar_hits"),
        "dataset.row_fallbacks": c("dataset.row_fallbacks"),
        "dataset.save_s": t("dataset.save"),
        "dataset.load_s": t("dataset.load"),
        "dataset.saved_bytes": c("dataset.saved_bytes"),
        "dataset.save_us_per_record": ratio(
            t("dataset.save"), c("dataset.saved_records"), 1e6),
        "dataset.load_us_per_record": ratio(
            t("dataset.load"), c("dataset.loaded_records"), 1e6),
        "backend.rollups_s": t("backend.rollups"),
        "ingest.batch_s": t("ingest.batch"),
        "ingest.events": c("ingest.events"),
        "ingest.us_per_event": ratio(t("ingest.batch"), c("ingest.events"), 1e6),
        "ingest.accepted": c("ingest.accepted"),
        "ingest.deduped": c("ingest.deduped"),
        "ingest.quarantined": c("ingest.quarantined"),
        "ingest.records": c("ingest.records"),
        "ingest.record_yield": ratio(c("ingest.records"), c("ingest.sessions_sent"), 1.0),
        "figures.suite_s": inc.get("figures.suite", 0.0) / rounds,
        "figures.self_s": t("figures.suite") + sum(t(f"figure.{fid}") for fid in FIGURE_IDS),
        "lint.run_s": t("lint.run"),
        "lint.files": c("lint.files"),
        "lint.findings": c("lint.findings"),
        "lint.us_per_line": ratio(t("lint.run"), c("lint.lines"), 1e6),
        "analysis.parse_s": t("analysis.parse"),
        "analysis.callgraph_s": t("analysis.callgraph"),
        "analysis.effects_s": t("analysis.effects"),
        "analysis.rules_s": t("analysis.run"),
        "analysis.call_edges": c("analysis.call_edges"),
        "analysis.findings": c("analysis.findings"),
        "trace.overhead_pct": overhead_pct,
    }
    values.update({f"figure.{fid}_s": t(f"figure.{fid}") for fid in FIGURE_IDS})
    layers = trace["layers"]
    values.update({
        f"share.{layer}_pct": ratio(layers.get(layer, 0.0), trace["round_s"], 100.0)
        for layer in LAYER_ORDER
    })
    return values


def print_rollup(workload: str, trace: Dict[str, object]) -> None:
    rounds, total = trace["rounds"], trace["round_s"]
    print(f"self-time rollup for {workload} over {rounds} traced rounds "
          f"({total / rounds:.4f} s per round)")
    for layer in LAYER_ORDER:
        secs = trace["layers"].get(layer, 0.0)
        print(f"  {layer:<18} {secs / rounds:10.4f} s/round {100.0 * secs / total:6.2f}%")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work)
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} cpu_count={os.cpu_count()} setups={SETUPS}"
    )
    try:
        run = traced if args.trace else end_to_end
        result = run(args, src, work, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
