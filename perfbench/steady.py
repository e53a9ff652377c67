"""Steadiness mode: repeat ``run.py`` and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 1] [--seed 2018]

For every workload it makes ``--runs`` end-to-end runs, each at its own
seed, each as its own ``run.py`` process, and prints every
end-to-end metric's median, quartiles and spread (``(q3 - q1) /
median``) next to the bound ``BENCHMARK.json`` fixes.  It then repeats
the first run's seed and checks that every round prints the same
output fingerprint again.  With ``--sets 2`` or more it also reports
how far each set's median moved from the first set's.

Exit status 1 means a run failed, a fingerprint changed, or a spread
exceeded its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run seeds are spaced so that no two runs share a round seed.
SEED_STEP = 1000


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, object], List[Tuple[int, str]]]:
    """Final JSON and ``(round seed, fingerprint)`` of one end-to-end run."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    prints = []
    for line in lines:
        if line.startswith("round "):
            fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            prints.append((int(fields["seed"]), fields["fingerprint"]))
    return json.loads(lines[-1]), prints


def spread(values: List[float]) -> Tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2018)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher_is_better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    problems: List[str] = []
    for workload in args.workloads.split(","):
        sets = []
        first_prints = None
        for index in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed + (index * args.runs + i) * SEED_STEP
                result, prints = one_run(workload, seed, seconds)
                if first_prints is None:
                    first_prints = (seed, prints)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: {result['failed']} failed rounds")
                runs.append(result)
                print(f"{workload} set {index} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            sets.append(runs)
        seed, prints = first_prints
        if one_run(workload, seed, seconds)[1] != prints:
            problems.append(f"{workload}: fingerprints changed on a repeat of seed {seed}")
        first_medians = {}
        for index, runs in enumerate(sets):
            for name, bound in bounds.items():
                med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
                verdict = "ok" if rel <= bound / 3 else "wide" if rel <= bound else "OVER BOUND"
                if rel > bound and name != "setup_s":
                    problems.append(f"{workload} {name}: spread {rel:.3f} > bound {bound}")
                drift = ""
                if index == 0:
                    first_medians[name] = med
                else:
                    moved = med / first_medians[name] - 1.0
                    worse = -moved if higher_is_better[name] else moved
                    if worse > bound:
                        problems.append(f"{workload} {name}: set {index} median worse by {worse:.3f}")
                    drift = f" moved {moved:+.3f} from set 0"
                print(f"{workload:<15} set {index} {name:<12} median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f} bound {bound} {verdict}{drift}")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
