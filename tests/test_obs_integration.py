"""Observability across the pipeline: counters, spans, CLI, determinism.

Three claims are under test here:

1. single source of truth — the counts an :class:`IngestReport` prints
   are published to the obs counters at every return of the pipeline,
   so a metrics snapshot equals the report, fault injection or not;
2. instrumentation is live — retries, breaker transitions, CDN
   failovers, generator stages and figure runs all leave the declared
   metric/span trail when obs is enabled;
3. obs is invisible — with obs disabled (the default) the figure
   pipeline emits byte-identical output to an obs-enabled run, because
   recorded data never feeds an analysis.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli, figures, obs
from repro.constants import ContentType
from repro.core.dimensions import PROTOCOL_COLUMN
from repro.core.report import format_table
from repro.delivery.multicdn import CdnBroker, ResilientFetcher
from repro.entities.cdn import CDN, CdnAssignment
from repro.errors import (
    CircuitOpenError,
    DatasetError,
    DeliveryError,
    RetryExhaustedError,
)
from repro.chaos.injectors import inject_telemetry
from repro.chaos.plan import FaultPlan
from repro.obs.clock import FakeClock
from repro.resilience import BackoffPolicy, CircuitBreaker, retry_with_backoff
from repro.synthesis.calibration import QOE_COMBOS, EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator
from repro.telemetry.dataset import Dataset
from repro.telemetry.ingest import (
    IngestPipeline,
    events_from_records,
    replayable,
)
from repro.testkit.scenario import ScenarioRun, get_scenario

pytestmark = pytest.mark.obs

# Small enough to regenerate twice in one test, large enough to hit
# every synthesis stage (case study included).
FAST_CONFIG = dict(
    seed=11, snapshot_limit=2, n_publishers=24, records_scale=0.2,
    qoe_sessions=10,
)


def _faulted_events(eco, rate: float = 0.3, sessions: int = 40):
    records = list(filter(replayable, eco.dataset.records))[:sessions]
    events = list(events_from_records(records))
    return inject_telemetry(events, FaultPlan.uniform(rate, 5)).events


# ---------------------------------------------------------------------------
# Single source of truth: the report's counts, published to obs
# ---------------------------------------------------------------------------


def _published(registry):
    """The ``ingest.*`` counts a registry holds, in report terms."""
    counters = registry.snapshot()["counters"]
    reasons = {
        key: int(value)
        for key, value in registry.series_values("ingest.quarantined").items()
        if value
    }
    return {
        "events": counters["ingest.events"],
        "accepted": counters["ingest.accepted"],
        "repaired": counters["ingest.repaired"],
        "deduped": counters["ingest.deduped"],
        "reaped": counters["ingest.reaped"],
        "records": counters["ingest.records"],
        "reasons": reasons,
    }


def _counted(report):
    """The same counts, read from the report."""
    return {
        "events": report.total_events,
        "accepted": report.accepted,
        "repaired": report.repaired,
        "deduped": report.deduped,
        "reaped": report.reaped,
        "records": len(report.records),
        "reasons": report.reason_counts(),
    }


class TestIngestSingleSource:
    def test_snapshot_counters_match_report_exactly(self, eco, global_obs):
        pipeline = IngestPipeline("quarantine")
        report = pipeline.run(_faulted_events(eco))

        assert _published(global_obs.registry) == _counted(report)
        per_reason = _published(global_obs.registry)["reasons"]
        assert sum(per_reason.values()) == report.quarantined
        assert report.quarantined > 0  # the fault mix actually bit

    def test_report_conservation_invariant_still_holds(self, eco):
        report = IngestPipeline("quarantine").run(_faulted_events(eco))
        assert (
            report.accepted + report.deduped + report.event_quarantined
            == report.total_events
        )

    def test_reports_isolate_pipelines(self, eco, global_obs):
        events = _faulted_events(eco, sessions=10)
        first = IngestPipeline("quarantine").run(list(events))
        second = IngestPipeline("quarantine").run(list(events))
        assert first.total_events == second.total_events
        assert first.summary() == second.summary()

    def test_shared_registry_accumulates_across_batches(self, eco, global_obs):
        events = list(_faulted_events(eco, sessions=10))
        solo = IngestPipeline("quarantine").run(list(events))
        shared = IngestPipeline("quarantine").run(list(events))
        total = global_obs.registry.counter("ingest.events").value
        assert total == 2 * solo.total_events
        # The process registry sums the pipelines; each report keeps
        # its own pipeline's counts.
        assert shared.total_events == solo.total_events == total / 2

    def test_repair_policy_counts_repairs(self, eco, global_obs):
        report = IngestPipeline("repair").run(_faulted_events(eco))
        assert report.repaired > 0
        assert (
            global_obs.registry.snapshot()["counters"]["ingest.repaired"]
            == report.repaired
        )

    def test_nothing_published_while_obs_is_off(self, eco):
        assert not obs.enabled()
        before = obs.metrics().snapshot()
        report = IngestPipeline("quarantine").run(_faulted_events(eco))
        assert report.total_events > 0
        assert obs.metrics().snapshot() == before

    def test_batch_span_recorded_when_enabled(self, eco, global_obs):
        report = IngestPipeline("quarantine").run(
            _faulted_events(eco, sessions=5)
        )
        spans = [
            s for s in global_obs.tracer.finished if s.name == "ingest.batch"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["policy"] == "quarantine"
        assert spans[0].attrs["events"] > 0
        # The counts land beside the span that timed them.
        assert spans[0].attrs["events"] == report.total_events
        assert _published(global_obs.registry) == _counted(report)

    def test_batch_span_keeps_the_counts_of_a_strict_abort(
        self, eco, global_obs
    ):
        pipeline = IngestPipeline("strict")
        with pytest.raises(DatasetError):
            pipeline.run(_faulted_events(eco))
        (span,) = [
            s for s in global_obs.tracer.finished if s.name == "ingest.batch"
        ]
        report = pipeline.report
        assert report.total_events > 0
        assert span.attrs == {
            "policy": "strict",
            "events": report.total_events,
            "accepted": report.accepted,
            "quarantined": report.quarantined,
            "records": len(report.records),
        }


# ---------------------------------------------------------------------------
# Resilience primitives leave their metric trail
# ---------------------------------------------------------------------------


class TestResilienceInstrumentation:
    def test_retry_attempts_histogram(self, global_obs):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeliveryError("transient")
            return "ok"

        policy = BackoffPolicy(retries=3, base_delay=0.0, jitter=0.0)
        assert (
            retry_with_backoff(
                flaky, policy=policy, retry_on=(DeliveryError,)
            )
            == "ok"
        )
        hist = global_obs.registry.histogram("retry.attempts")
        assert hist.count == 1
        assert hist.sum == 3.0

    def test_retry_exhaustion_counted(self, global_obs):
        def doomed():
            raise DeliveryError("hard down")

        policy = BackoffPolicy(retries=1, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError):
            retry_with_backoff(
                doomed, policy=policy, retry_on=(DeliveryError,)
            )
        assert global_obs.registry.counter("retry.exhausted").count == 1
        assert global_obs.registry.histogram("retry.attempts").sum == 2.0

    def test_breaker_transition_edges_and_rejections(self, global_obs):
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout=30.0, name="cdn:A"
        )

        def fail():
            raise DeliveryError("down")

        for _ in range(2):
            with pytest.raises(DeliveryError):
                breaker.call(fail)
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

        values = global_obs.registry.series_values("breaker.transitions")
        assert values == {"cdn:A,closed,open": 1.0}
        rejected = global_obs.registry.series_values("breaker.rejected")
        assert rejected == {"cdn:A": 1.0}

    def test_multicdn_failover_counters(self, global_obs):
        broker = CdnBroker(explore=0.0)
        broker.observe("A", 5000.0)
        broker.observe("B", 2000.0)
        fetcher = ResilientFetcher(
            broker,
            policy=BackoffPolicy(retries=1, base_delay=0.0, jitter=0.0),
            failure_threshold=2,
            recovery_timeout=30.0,
        )
        assignments = tuple(
            CdnAssignment(cdn=CDN(name=name), content_types=frozenset(ContentType))
            for name in ("A", "B")
        )

        def fetch(name):
            if name == "A":
                raise DeliveryError("A is down")
            return f"chunk-from-{name}"

        outcome = fetcher.fetch(assignments, ContentType.VOD, fetch)
        assert outcome.cdn_name == "B"
        registry = global_obs.registry
        assert registry.series_values("multicdn.failover") == {"A": 1.0}
        assert registry.series_values("multicdn.served") == {"B": 1.0}


# ---------------------------------------------------------------------------
# Generator and figure spans
# ---------------------------------------------------------------------------


class TestPipelineSpans:
    def test_generator_emits_stage_spans_and_counts(self, global_obs):
        result = EcosystemGenerator(
            EcosystemConfig(**FAST_CONFIG)
        ).generate()
        names = [s.name for s in global_obs.tracer.finished]
        assert names.count("synthesis.snapshot") == 2
        assert "synthesis.population" in names
        assert "synthesis.case_study" in names
        root = next(
            s
            for s in global_obs.tracer.finished
            if s.name == "synthesis.generate"
        )
        assert root.attrs["records"] == len(result.dataset)
        assert root.attrs["seed"] == FAST_CONFIG["seed"]
        counters = global_obs.registry.snapshot()["counters"]
        assert counters["synthesis.records"] == len(result.dataset)
        assert counters["synthesis.snapshots"] == 2

    def test_case_study_counts_playback_rows_and_chunks(self, global_obs):
        result = EcosystemGenerator(
            EcosystemConfig(**FAST_CONFIG)
        ).generate()
        labels = len(result.case_study.syndicator_labels) + 1
        rows = labels * FAST_CONFIG["qoe_sessions"]
        chunks_per_row = 150  # 900 s views in 6 s chunks
        spans = [
            s
            for s in global_obs.tracer.finished
            if s.name == "playback.simulate"
        ]
        assert [s.attrs for s in spans] == [
            {
                "sessions": rows,
                "chunks": rows * chunks_per_row,
                "abr": "ThroughputAbr",
            }
        ] * len(QOE_COMBOS)
        counters = global_obs.registry.snapshot()["counters"]
        assert counters["playback.sessions"] == len(QOE_COMBOS) * rows
        assert counters["playback.chunks"] == (
            len(QOE_COMBOS) * rows * chunks_per_row
        )

    def test_figure_run_span_and_counter(self, eco, global_obs):
        rows = figures.run_figure("F2a", eco)
        span = next(
            s for s in global_obs.tracer.finished if s.name == "figure.run"
        )
        assert span.attrs == {"figure": "F2a", "rows": len(rows)}
        # reset() zeroes values but keeps previously registered series,
        # so only assert on the series this test owns plus emptiness of
        # the rest — robust to any prior figure run in the process.
        series = global_obs.registry.series_values("figure.runs")
        assert series["F2a"] == 1.0
        assert all(v == 0.0 for k, v in series.items() if k != "F2a")

    def test_column_build_span_classifies_each_url_once(self, eco, global_obs):
        dataset = Dataset(eco.dataset.records)  # a fresh, empty store
        dataset.view_hours_by(PROTOCOL_COLUMN)
        dataset.view_hours_by(PROTOCOL_COLUMN)  # built once, then cached
        builds = {
            s.attrs["column"]: s
            for s in global_obs.tracer.finished
            if s.name == "columnar.intern"
        }
        urls = len({record.url for record in dataset})
        assert builds["protocol:all"].attrs == {
            "column": "protocol:all",
            "records": len(dataset),
            "distinct": urls,
        }
        assert builds["url"].attrs["distinct"] == urls
        counters = global_obs.registry.snapshot()["counters"]
        assert counters["columnar.classified"] == urls


    def test_save_and_load_spans_count_records_and_bytes(
        self, eco, global_obs, tmp_path
    ):
        dataset = Dataset(eco.dataset.records[:50])
        path = tmp_path / "spans.jsonl.gz"
        dataset.save(path)
        assert len(Dataset.load(path)) == 50
        spans = {
            s.name: s
            for s in global_obs.tracer.finished
            if s.name in ("dataset.save", "dataset.load")
        }
        written = {"records": 50, "bytes": path.stat().st_size}
        assert spans["dataset.save"].attrs == written
        assert spans["dataset.load"].attrs == written

    def test_save_and_load_record_nothing_when_disabled(self, eco, tmp_path):
        assert not obs.enabled()
        before = len(obs.tracer().finished)
        path = tmp_path / "quiet.jsonl"
        Dataset(eco.dataset.records[:50]).save(path)
        Dataset.load(path)
        assert len(obs.tracer().finished) == before


# ---------------------------------------------------------------------------
# Obs must be invisible: byte-identical output on vs off
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_figure_output_identical_obs_on_vs_off(self):
        def build_tables() -> str:
            result = EcosystemGenerator(
                EcosystemConfig(**FAST_CONFIG)
            ).generate()
            return "\n\n".join(
                format_table(figures.run_figure(fid, result))
                for fid in ("F2a", "F13", "S44")
            )

        assert not obs.enabled()
        off = build_tables()
        obs.configure(enabled=True, clock=FakeClock())
        try:
            on = build_tables()
        finally:
            obs.get_context().configure(enabled=False)
            obs.reset()
        assert on == off

    def test_disabled_run_records_nothing(self):
        assert not obs.enabled()
        before = len(obs.tracer().finished)
        EcosystemGenerator(EcosystemConfig(**FAST_CONFIG)).generate()
        assert len(obs.tracer().finished) == before


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliObs:
    @staticmethod
    def _ingest(tmp_path, policy, fault_rate):
        out = tmp_path / "m.json"
        exit_code = cli.main(
            [
                "ingest",
                "--policy",
                policy,
                "--fault-rate",
                fault_rate,
                "--sessions",
                "30",
                "--publishers",
                "24",
                "--metrics-out",
                str(out),
            ]
        )
        return exit_code, json.loads(out.read_text())["metrics"]

    @pytest.mark.parametrize(
        "policy, fault_rate",
        [("strict", "0"), ("quarantine", "0.2"), ("repair", "0.2")],
    )
    def test_ingest_metrics_out_matches_printed_report(
        self, tmp_path, capsys, global_obs, policy, fault_rate
    ):
        exit_code, metrics = self._ingest(tmp_path, policy, fault_rate)
        assert exit_code == 0
        summary = capsys.readouterr().out
        counters = metrics["counters"]
        # The snapshot holds what the report published; parse the
        # printed summary back and compare every count.
        line = next(
            l for l in summary.splitlines() if l.startswith("policy=")
        )
        printed = dict(
            part.split("=")
            for part in line.split(" [")[0].split()
            if "=" in part
        )
        assert printed["policy"] == policy
        for name in (
            "events", "accepted", "records", "repaired", "deduped", "reaped"
        ):
            assert counters[f"ingest.{name}"] == float(printed[name]), name
        quarantined = sum(
            value
            for key, value in counters.items()
            if key.startswith("ingest.quarantined{")
        )
        assert quarantined == float(printed["quarantined"])
        assert metrics["gauges"]["ingest.open_sessions"] == 0.0

    def test_strict_abort_snapshot_keeps_the_failing_call(
        self, tmp_path, capsys, global_obs
    ):
        """A strict abort exits 1 and exports the counts up to the
        failing event: the ``ingest.*`` values the snapshot held before
        counts moved onto the report's fields."""
        exit_code, metrics = self._ingest(tmp_path, "strict", "0.2")
        assert exit_code == 1
        assert "strict ingestion aborted" in capsys.readouterr().err
        ingest = {
            key: value
            for section in ("counters", "gauges")
            for key, value in metrics[section].items()
            if key.startswith("ingest.") and value
        }
        assert ingest == {
            "ingest.events": 22.0,
            "ingest.accepted": 21.0,
            "ingest.open_sessions": 1.0,
        }

    def test_testkit_metrics_out_counts_the_oracles_ingests(
        self, tmp_path, capsys, global_obs
    ):
        """``fault-ingest-replay`` ingests the corrupted stream twice
        under each of two policies; the snapshot counts all four."""
        out = tmp_path / "tk.json"
        exit_code = cli.main(
            [
                "testkit", "run", "--scenario", "fault-heavy",
                "--oracle", "fault-ingest-replay",
                "--metrics-out", str(out),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        counters = json.loads(out.read_text())["metrics"]["counters"]
        run = ScenarioRun(get_scenario("fault-heavy"))
        stream = len(run.corrupted_events().events)
        assert stream > 0
        assert counters["ingest.events"] == 4 * stream

    def test_figure_trace_prints_span_tree(self, capsys, global_obs):
        exit_code = cli.main(
            [
                "figure",
                "F13",
                "--trace",
                "--snapshots",
                "2",
                "--publishers",
                "24",
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "synthesis.generate" in err
        assert "  synthesis.snapshot" in err  # indented: nested span
        assert "figure.run" in err

    def test_generate_trace_prints_the_save(self, capsys, global_obs, tmp_path):
        path = tmp_path / "traced.jsonl.gz"
        exit_code = cli.main(
            [
                "generate", "--out", str(path), "--trace",
                "--snapshots", "2", "--publishers", "24",
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "synthesis.generate" in err
        assert f"bytes={path.stat().st_size}" in err
        assert "dataset.save" in err

    def test_figures_run_trace_prints_column_builds(self, capsys, global_obs):
        exit_code = cli.main(
            [
                "figures", "--run", "--trace",
                "--snapshots", "2", "--publishers", "24",
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "columnar.intern" in err
        assert "column=protocol:all" in err

    def test_metrics_subcommand_lists_catalog(self, capsys, global_obs):
        assert cli.main(["metrics"]) == 0
        out = capsys.readouterr().out
        for name in ("ingest.quarantined", "retry.attempts", "figure.runs"):
            assert name in out

    def test_metrics_subcommand_json_shape(self, capsys, global_obs):
        assert cli.main(["metrics", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {spec["name"] for spec in payload["catalog"]}
        assert "multicdn.failover" in names
        assert set(payload["snapshot"]) == {
            "counters",
            "gauges",
            "histograms",
        }

    def test_lint_trace_prints_lint_run_span(
        self, tmp_path, capsys, global_obs
    ):
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text("VALUE = 1\n", encoding="utf-8")
        args = ["check", str(tmp_path), "--root", str(tmp_path), "--trace"]
        assert cli.main(args) == 0
        assert "lint.rules" in capsys.readouterr().err
        assert global_obs.registry.counter("lint.files").value == 2

    def test_analyze_trace_prints_stage_spans(self, capsys, global_obs):
        demo = Path(__file__).parent / "fixtures" / "repgraph_demo"
        code = cli.main(
            ["check", "demo", "--root", str(demo), "--no-baseline",
             "--trace"]
        )
        assert code == 1  # the fixture plants one hazard per RPL1xx code
        err = capsys.readouterr().err
        for stage in ("check.run", "  lint.rules", "  analysis.effects"):
            assert stage in err
