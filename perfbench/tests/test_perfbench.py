"""The benchmark's own tests.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import eventgen
import hazards
import run
import workloads
from spans import Span, SpanRecorder, covered, rollup, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL = eventgen.StreamSpec(sessions=120, open_sessions=9)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_names_exactly_the_workloads_and_metrics():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    from repro import figures

    assert sorted(run.FIGURE_IDS) == figures.figure_ids()


def test_benchmark_json_stays_within_the_format_limits():
    spec = load_spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert name.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(m["name"]) and unit.match(m["unit"]) for m in metrics)
    assert len(json.dumps(spec)) <= 64 * 1024


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),   # child of a
        Span("c", 5.0, 7.0, 0),   # sibling of b
        Span("d", 2.0, 3.0, 1),   # grandchild: only b loses it
        Span("e", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 1.0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == 4.0
    assert covered([(-1.0, 1.0)], 0.0, 5.0) == 1.0
    assert covered([], 0.0, 5.0) == 0.0


def test_rollup_sums_layers_and_leaves_the_rest_unattributed():
    spans = [
        Span("figures.suite", 0.0, 6.0, -1),
        Span("synthesis.generate", 0.5, 4.5, 0),
        Span("figure.F2a", 4.5, 5.5, 0),
        Span("ingest.batch", 7.0, 8.0, -1),
    ]
    inclusive, own, layers = rollup(spans, [(0.0, 10.0)])
    assert inclusive["figures.suite"] == 6.0
    assert own["figures.suite"] == 1.0
    assert layers["figures"] == 2.0
    assert layers["synthesis"] == 4.0
    assert layers["telemetry-ingest"] == 1.0
    assert layers["unattributed"] == 3.0
    assert sum(layers.values()) == 10.0


def test_recorder_records_parents_counts_and_unpatches():
    class Thing:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    recorder = SpanRecorder(clock=iter(range(100)).__next__)
    original = Thing.__dict__["outer"]
    recorder.patch(Thing, "outer", recorder.wrap("outer", Thing.outer))
    recorder.patch(Thing, "inner", recorder.wrap(
        "inner", Thing.inner, count=lambda r, self, n: {"doubled": r}))
    assert Thing().outer(3) == 7
    spans, counts = recorder.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0)]
    assert self_times(spans) == [2.0, 1.0]  # clock ticks 0..3: outer 3, inner 1
    assert counts == {"inner.calls": 1.0, "doubled": 6.0, "outer.calls": 1.0}
    recorder.unpatch()
    assert Thing.__dict__["outer"] is original


# ---------------------------------------------------------------------------
# The ingest-persist event generator
# ---------------------------------------------------------------------------


def test_event_stream_is_a_function_of_the_seed():
    first = eventgen.event_stream(5, SMALL)
    again = eventgen.event_stream(5, SMALL)
    other = eventgen.event_stream(6, SMALL)
    assert [repr(e) for e in first.events] == [repr(e) for e in again.events]
    assert first.faults == again.faults
    assert [repr(e) for e in first.events] != [repr(e) for e in other.events]


def test_interleave_keeps_each_sessions_order_and_bounds_open_sessions():
    sessions = eventgen.clean_sessions(random.Random(1), SMALL)
    merged = eventgen.interleave(sessions, SMALL.open_sessions, random.Random(2))
    assert len(merged) == sum(len(s) for s in sessions)
    for events in sessions:
        sid = events[0].session_id
        assert [e for e in merged if e.session_id == sid] == events
    open_now, widest = set(), 0
    for event in merged:
        if isinstance(event, eventgen.SessionStart):
            open_now.add(event.session_id)
        elif isinstance(event, eventgen.SessionEnd):
            open_now.discard(event.session_id)
        widest = max(widest, len(open_now))
    assert widest == SMALL.open_sessions


def test_faults_cover_all_six_modes_at_the_configured_rate():
    rng = random.Random(3)
    merged = eventgen.interleave(
        eventgen.clean_sessions(rng, eventgen.StreamSpec(sessions=400)), 50, rng
    )
    _, counts = eventgen.inject_faults(merged, 0.2, rng)
    assert set(counts) == set(eventgen.FAULT_KINDS)
    assert all(n > 0 for n in counts.values())
    assert abs(sum(counts.values()) / len(merged) - 0.2) < 0.02


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def tiny(name, monkeypatch):
    """A workload instance at the smallest sizes the program accepts."""
    if name == "self-check":
        monkeypatch.setattr(hazards, "CORPUS_PACKAGES", ("json",))
    workload = type(workloads.WORKLOADS[name])()
    if name == "longitudinal":
        workload.sizes = dict(workload.sizes, n_publishers=20, snapshot_limit=2)
    elif name == "ingest-persist":
        workload.spec = SMALL
    return workload


def one_round(workload, seed, work_dir):
    inp = workload.prepare(seed, work_dir)
    try:
        return workload.verify(inp, workload.run(inp))
    finally:
        workload.discard(inp)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_round_passes_its_check_and_repeats_its_fingerprint(name, tmp_path, monkeypatch):
    workload = tiny(name, monkeypatch)
    first = one_round(workload, 11, str(tmp_path))
    assert first.problems == []
    assert first.items > 0
    assert one_round(workload, 11, str(tmp_path)).fingerprint == first.fingerprint
    assert os.listdir(tmp_path) == []


def test_self_check_fails_when_a_planted_hazard_goes_unreported(tmp_path, monkeypatch):
    workload = tiny("self-check", monkeypatch)
    inp = workload.prepare(4, str(tmp_path))
    try:
        lint, analysis = workload.run(inp)
        analysis.findings = [f for f in analysis.findings if f.code != "RPL102"]
        problems = workload.verify(inp, (lint, analysis)).problems
    finally:
        workload.discard(inp)
    assert len(problems) == 1 and "RPL102" in problems[0]


def test_traced_round_keeps_the_fingerprint_and_records_layers(tmp_path, monkeypatch):
    workload = tiny("ingest-persist", monkeypatch)
    plain = one_round(workload, 3, str(tmp_path))
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = one_round(workload, 3, str(tmp_path))
    finally:
        recorder.unpatch()
    spans, counts = recorder.take()
    assert traced.fingerprint == plain.fingerprint
    names = {s.name for s in spans}
    assert {"ingest.batch", "dataset.build", "dataset.save", "dataset.load",
            "backend.rollups"} <= names
    assert counts["ingest.events"] == plain.items


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "self-check",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        assert result["metrics"]["playback.sessions"]["value"] == 0
        assert result["metrics"]["lint.files"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "longitudinal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
