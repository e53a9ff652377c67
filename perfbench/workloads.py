"""The four benchmark workloads.

Each workload is a closed loop with one caller: a round builds its
input from the round seed (``prepare``, outside the timer), calls the
program's public functions (``run``, timed), then checks the output
and fingerprints it (``verify``, outside the timer).  Round ``i`` of a
run at seed ``s`` uses seed ``s + i``, so no round repeats an earlier
round's input.

The program is reached only through module attributes looked up at
call time, so the traced run's wrappers (``spans.py``) see every call.

==============  ===============================  =========================
workload        item                             size per round
==============  ===============================  =========================
longitudinal    view record synthesized and      30 publishers, 3 snapshots,
                analyzed (X4's record count)     32 figures (all but the
                                                 case-study ones)
qoe-whatif      simulated playback session       20 publishers, 2 snapshots,
                                                 40 QoE sessions per combo,
                                                 6 case-study figures, 40
                                                 projections of 10 sessions
ingest-persist  ingested event                   1500 sessions, 300 open,
                                                 20 s heartbeats, 20% faults
self-check      source line checked              1/6 of the stdlib corpus
                                                 plus 6 planted hazards
==============  ===============================  =========================

Every workload's default seed is 2018 and its held-out seed, never
used while the benchmark was tuned, is 7919.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import eventgen
import hazards

QOE_IDS = ("F15", "F16", "F17", "F18", "X2", "X3")
QOE_PATHS = (("X", "A"), ("Y", "B"))


def fingerprint(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """What one round produced, as the harness records it."""

    items: int
    fingerprint: str
    problems: List[str] = field(default_factory=list)
    #: Counts only the benchmark knows (e.g. sessions sent), for the
    #: traced run's ratios.
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload: ``prepare`` and ``verify`` are the benchmark's own
    code; only ``run`` calls the program and is timed."""

    name = ""

    def prepare(self, seed: int, work_dir: str) -> object:
        raise NotImplementedError

    def run(self, inp: object) -> object:
        raise NotImplementedError

    def verify(self, inp: object, out: object) -> Outcome:
        raise NotImplementedError

    def discard(self, inp: object) -> None:
        """Remove whatever ``prepare`` or ``run`` left on disk."""


class Longitudinal(Workload):
    name = "longitudinal"
    sizes = {"n_publishers": 30, "snapshot_limit": 3}

    def ids(self) -> List[str]:
        from repro import figures

        return [i for i in figures.figure_ids() if i not in QOE_IDS]

    def prepare(self, seed, work_dir):
        from repro.synthesis.calibration import EcosystemConfig

        return EcosystemConfig(
            seed=seed,
            n_publishers=self.sizes["n_publishers"],
            snapshot_limit=self.sizes["snapshot_limit"],
            include_case_study=False,
        )

    def run(self, config):
        from repro import figures

        return figures.run_suite(config, ids=self.ids())

    def verify(self, config, rows):
        problems = [f"{fid} returned no rows" for fid in self.ids() if not rows.get(fid)]
        records = [r["value"] for r in rows.get("X4", ()) if r.get("check") == "records"]
        if not records:
            problems.append("X4 reports no record count")
        return Outcome(int(records[0]) if records else 0, fingerprint(rows), problems)


class QoeWhatIf(Workload):
    name = "qoe-whatif"
    sizes = {
        "n_publishers": 20, "snapshot_limit": 2, "qoe_sessions": 40,
        "projection_sessions": 10, "x2_sessions": 60,
    }

    def prepare(self, seed, work_dir):
        from repro.synthesis.calibration import EcosystemConfig

        return EcosystemConfig(
            seed=seed,
            n_publishers=self.sizes["n_publishers"],
            snapshot_limit=self.sizes["snapshot_limit"],
            qoe_sessions=self.sizes["qoe_sessions"],
        )

    def run(self, config):
        from repro import figures
        from repro.core import integrated
        from repro.playback.abr import BufferBasedAbr, HybridAbr
        from repro.synthesis import generator

        result = generator.EcosystemGenerator(config).generate()
        rows = {fid: figures.run_figure(fid, result) for fid in QOE_IDS}
        study = result.case_study
        projections = [
            integrated.integrated_qoe_projection(
                study, label, isp, cdn,
                sessions=self.sizes["projection_sessions"],
                seed=config.seed, abr=abr,
            )
            for label in study.syndicator_labels
            for abr in (BufferBasedAbr(), HybridAbr())
            for isp, cdn in QOE_PATHS
        ]
        return rows, projections, len(study.syndicator_labels)

    def verify(self, config, out):
        rows, projections, labels = out
        problems = []
        gains = [r["median_gain"] for r in rows["F15"]]
        if len(gains) != len(QOE_PATHS) or not all(g > 1.0 for g in gains):
            problems.append(f"F15 median gains {gains} not above 1 on both paths")
        if len(rows["X2"]) != labels:
            problems.append(f"X2 has {len(rows['X2'])} rows for {labels} syndicators")
        sizes = self.sizes
        sessions = (
            len(QOE_PATHS) * (labels + 1) * sizes["qoe_sessions"]
            + 2 * labels * sizes["x2_sessions"]
            + 2 * len(projections) * sizes["projection_sessions"]
        )
        payload = [rows, [repr(p) for p in projections]]
        return Outcome(sessions, fingerprint(payload), problems)


@dataclass
class IngestInput:
    stream: eventgen.Stream
    path: str


class IngestPersist(Workload):
    name = "ingest-persist"
    spec = eventgen.StreamSpec()

    def prepare(self, seed, work_dir):
        import gc

        gc.disable()  # input building only: a large object graph
        try:
            stream = eventgen.event_stream(seed, self.spec)
        finally:
            gc.enable()
        return IngestInput(stream, os.path.join(work_dir, f"round-{seed}.jsonl.gz"))

    def run(self, inp):
        from repro.telemetry import backend as backend_mod
        from repro.telemetry import dataset as dataset_mod

        backend = backend_mod.TelemetryBackend()
        report = backend.ingest_events(inp.stream.events, policy="quarantine")
        saved = backend.dataset()
        saved.save(inp.path)
        loaded = dataset_mod.Dataset.load(inp.path)
        return (
            report,
            saved.publisher_view_hours(),
            loaded.publisher_view_hours(),
            backend.combo_rollups(),
        )

    def verify(self, inp, out):
        report, saved_hours, loaded_hours, rollups = out
        events = len(inp.stream.events)
        problems = []
        accounted = report.accepted + report.deduped + report.event_quarantined
        if not accounted == report.total_events == events:
            problems.append(
                f"accepted {report.accepted} + deduped {report.deduped} + "
                f"dead letters {report.event_quarantined} != events {events}"
            )
        if loaded_hours != saved_hours:
            problems.append("loaded publisher_view_hours differ from saved")
        payload = [
            report.summary(), sorted(saved_hours.items()),
            [repr(r) for r in rollups],
        ]
        return Outcome(
            events, fingerprint(payload), problems,
            {"ingest.sessions_sent": inp.stream.sessions},
        )

    def discard(self, inp):
        if os.path.exists(inp.path):
            os.remove(inp.path)


@dataclass
class CheckInput:
    root: str
    paths: List[str]
    hazards: List[hazards.Hazard]
    lines: int


class SelfCheck(Workload):
    name = "self-check"

    def __init__(self) -> None:
        self._slices: Optional[List[List[str]]] = None
        self._lines: Dict[str, int] = {}

    def prepare(self, seed, work_dir):
        if self._slices is None:
            files = hazards.corpus_files()
            self._lines = dict(files)
            self._slices = hazards.deal(files)
        root = os.path.join(work_dir, f"round-{seed}")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        chosen = self._slices[seed % len(self._slices)]
        hazards.copy_slice(chosen, root)
        package, planted, planted_lines = hazards.plant_package(root, seed)
        lines = planted_lines + sum(self._lines[p] for p in chosen)
        paths = sorted({p.split(os.sep)[0] for p in chosen} | {package})
        return CheckInput(root, paths, planted, lines)

    def run(self, inp):
        from repro.analysis import engine as analysis_engine
        from repro.lint import engine as lint_engine
        from repro.lint.config import LintConfig

        config = LintConfig(root=inp.root)
        lint = lint_engine.run_lint(inp.paths, config=config, use_baseline=False)
        analysis = analysis_engine.run_analysis(inp.paths, config=config, use_baseline=False)
        return lint, analysis

    def verify(self, inp, out):
        lint, analysis = out
        found = sorted(
            (f.path, f.line, f.code) for f in list(lint.findings) + list(analysis.findings)
        )
        present = set(found)
        problems = [
            f"{h.code} not reported at {h.path}:{h.line}"
            for h in inp.hazards
            if (h.path, h.line, h.code) not in present
        ]
        return Outcome(inp.lines, fingerprint(found), problems, {"lint.lines": inp.lines})

    def discard(self, inp):
        shutil.rmtree(inp.root, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Longitudinal(), QoeWhatIf(), IngestPersist(), SelfCheck())
}
