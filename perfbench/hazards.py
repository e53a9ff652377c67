"""Inputs of the ``self-check`` workload: corpus slices and planted hazards.

The corpus is a fixed list of standard-library packages, tests
excluded, so it does not grow with ``src/``.  Its files are dealt into
``SLICES`` slices of about equal line count; round ``seed`` checks slice
``seed % SLICES`` together with a package written fresh for that round,
in which ``plant_package`` places one hazard per whole-program analysis
(RPL101-RPL104) plus one per-file RPL003 handler, at lines that depend
on the seed.  The benchmark owns this input: nothing here reads the
program.
"""

from __future__ import annotations

import os
import random
import shutil
import sysconfig
from dataclasses import dataclass
from typing import List, Sequence, Tuple

CORPUS_PACKAGES = ("email", "json", "http", "concurrent", "multiprocessing")
SLICES = 6


@dataclass(frozen=True)
class Hazard:
    code: str
    path: str  # relative to the round's root, posix form
    line: int


def corpus_files() -> List[Tuple[str, int]]:
    """``(path relative to the stdlib, line count)`` of every corpus file."""
    stdlib = sysconfig.get_paths()["stdlib"]
    files: List[Tuple[str, int]] = []
    for package in CORPUS_PACKAGES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(stdlib, package)):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("test", "tests", "__pycache__")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as handle:
                        lines = sum(1 for _ in handle)
                    files.append((os.path.relpath(path, stdlib), lines))
    return files


def deal(files: Sequence[Tuple[str, int]], slices: int = SLICES) -> List[List[str]]:
    """Split files into ``slices`` groups of near-equal line count."""
    groups: List[List[str]] = [[] for _ in range(slices)]
    sizes = [0] * slices
    for path, lines in sorted(files, key=lambda f: (-f[1], f[0])):
        lightest = sizes.index(min(sizes))
        groups[lightest].append(path)
        sizes[lightest] += lines
    return [sorted(group) for group in groups]


def copy_slice(paths: Sequence[str], root: str) -> None:
    stdlib = sysconfig.get_paths()["stdlib"]
    for rel in paths:
        target = os.path.join(root, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(stdlib, rel), target)


class _Module:
    """A source file under construction that knows its line numbers."""

    def __init__(self, rng: random.Random, docstring: str) -> None:
        self.rng = rng
        self.lines: List[str] = [f'"""{docstring}"""', ""]

    def add(self, *lines: str) -> int:
        """Append lines; returns the 1-based number of the first."""
        first = len(self.lines) + 1
        self.lines.extend(lines)
        return first

    def filler(self) -> None:
        """A seeded number of harmless helpers, to move later lines."""
        for _ in range(self.rng.randrange(4)):
            name = f"helper_{self.rng.randrange(10**6):06d}"
            self.add("", "", f"def {name}(value):", f"    return value * {self.rng.randrange(2, 9)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def plant_package(root: str, seed: int) -> Tuple[str, List[Hazard], int]:
    """Write a seeded hazard package under ``root``; returns its name,
    every hazard with the file and line the analyzers must report, and
    the number of lines written."""
    rng = random.Random(seed)
    pkg = f"plant{seed % 10**6:06d}"
    hazards: List[Hazard] = []
    files = {}

    def rel(module: str) -> str:
        return f"{pkg}/{module}.py"

    streams = _Module(rng, "RNG streams.")
    streams.add("import random", "", "import numpy as np", "", f"RNG = random.Random({rng.randrange(10**6)})")
    streams.filler()
    ctor = rng.choice(("np.random.default_rng()", "random.Random()", "np.random.RandomState()"))
    line = streams.add("", "", "def fresh_stream():", f"    return {ctor}")
    hazards.append(Hazard("RPL101", rel("streams"), line + 3))
    files["streams"] = streams

    workers = _Module(rng, "Pool workers.")
    workers.add(f"from {pkg} import streams", "", "RESULTS = []")
    workers.filler()
    workers.add("", "", "def draw_many(count):", "    return [streams.RNG.random() for _ in range(count)]")
    workers.filler()
    workers.add("", "", "def record_result(item):", "    RESULTS.append(item)", "    return len(RESULTS)")
    files["workers"] = workers

    pool = _Module(rng, "Fan-out entry points.")
    pool.add("from concurrent.futures import ProcessPoolExecutor", "", f"from {pkg} import workers")
    pool.filler()
    line = pool.add(
        "", "", "def run_draws(jobs, counts):",
        "    with ProcessPoolExecutor(max_workers=jobs) as pool:",
        "        return list(pool.map(workers.draw_many, counts))",
    )
    hazards.append(Hazard("RPL102", rel("pool"), line + 4))
    pool.filler()
    line = pool.add(
        "", "", "def run_recording(jobs, items):",
        "    with ProcessPoolExecutor(max_workers=jobs) as pool:",
        "        futures = [pool.submit(workers.record_result, i) for i in items]",
        "        return [f.result() for f in futures]",
    )
    hazards.append(Hazard("RPL104", rel("pool"), line + 4))
    files["pool"] = pool

    cli = _Module(rng, "Entry point.")
    cli.add("import time")
    cli.filler()
    clock = rng.choice(("time.time()", "time.time_ns()"))
    line = cli.add("", "", "def build_stamp():", f"    return {clock}")
    hazards.append(Hazard("RPL103", rel("cli"), line + 3))
    files["cli"] = cli

    report = _Module(rng, "Report writer.")
    report.add("import json", "", f"from {pkg} import cli")
    report.filler()
    line = report.add(
        "", "", "def write_report(path, rows):",
        '    payload = {"generated_at": cli.build_stamp(), "rows": list(rows)}',
        '    with open(path, "w", encoding="utf-8") as fh:',
        "        json.dump(payload, fh, sort_keys=True)",
        "    return payload",
    )
    hazards.append(Hazard("RPL103", rel("report"), line + 5))
    report.filler()
    line = report.add(
        "", "", "def safe_rows(rows):", "    try:",
        "        return list(rows)", "    except Exception:", "        return []",
    )
    hazards.append(Hazard("RPL003", rel("report"), line + 5))
    files["report"] = report

    init = _Module(rng, "Planted determinism hazards.")
    files["__init__"] = init
    os.makedirs(os.path.join(root, pkg))
    for module, source in files.items():
        with open(os.path.join(root, rel(module)), "w", encoding="utf-8") as handle:
            handle.write(source.text())
    return pkg, hazards, sum(len(source.lines) for source in files.values())
