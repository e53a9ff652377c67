"""repro.obs unit suite: clocks, spans, metrics, logs, exporters.

Everything runs against private :class:`ObsContext` / registry / tracer
instances driven by a :class:`FakeClock`, so durations and histogram
samples are exact, not approximate, and the process-global context is
never touched.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import ObsContext
from repro.obs.clock import CallableClock, Clock, FakeClock, MonotonicClock
from repro.obs.export import snapshot_payload, to_json, write_snapshot
from repro.obs.metrics import (
    NOOP_INSTRUMENT,
    Histogram,
    MetricsError,
    MetricsRegistry,
    format_series,
    log_buckets,
)
from repro.obs.tracing import NULL_SPAN_CONTEXT, Tracer, render_tree
from repro.obs.instruments import CATALOG, catalog_by_name, register_catalog
from repro.obs.logs import (
    JsonLogFormatter,
    get_logger,
    install_handler,
    log_event,
    remove_handler,
)

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class TestClocks:
    def test_base_clock_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Clock().now()

    def test_fake_clock_only_moves_when_told(self):
        clock = FakeClock(start=100.0)
        assert clock.now() == 100.0
        assert clock.now() == 100.0
        clock.advance(2.5)
        assert clock.now() == 102.5

    def test_fake_clock_rejects_backwards_motion(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_callable_clock_adapts_a_function(self):
        ticks = iter([1, 2, 3])
        clock = CallableClock(lambda: next(ticks))
        assert clock.now() == 1.0
        assert clock.now() == 2.0

    def test_monotonic_clock_goes_forward(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_duration_is_exact_under_fake_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(1.25)
        assert span.duration == 1.25
        assert tracer.finished == [span]

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id == inner.span_id
            assert tracer.current_span_id == outer.span_id
        assert tracer.current_span_id is None
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_ids_are_sequential_not_random(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        assert [s.span_id for s in tracer.finished] == [1, 3, 2]
        ordered = sorted(tracer.finished, key=lambda s: s.span_id)
        assert [s.name for s in ordered] == ["a", "b", "c"]

    def test_span_records_even_when_body_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                clock.advance(0.5)
                raise RuntimeError("boom")
        assert tracer.current_span_id is None
        (span,) = tracer.finished
        assert span.duration == 0.5

    def test_set_attaches_attributes(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", n=3) as span:
            span.set(rows=7)
        assert span.attrs == {"n": 3, "rows": 7}

    def test_reset_restarts_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished == []
        with tracer.span("b") as span:
            pass
        assert span.span_id == 1


class TestRenderTree:
    def test_tree_nests_and_scales(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", seed=7):
            with tracer.span("child"):
                clock.advance(0.002)
        text = render_tree(tracer.finished)
        assert text.splitlines() == [
            "root  2.000ms  [seed=7]",
            "  child  2.000ms",
        ]

    def test_orphans_render_as_roots(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("parent"):
            with tracer.span("child") as child:
                pass
        # Drop the parent: the child's parent_id now dangles.
        orphaned = [s for s in tracer.finished if s is child]
        assert render_tree(orphaned).startswith("child")

    def test_empty_input_has_a_placeholder(self):
        assert render_tree([]) == "(no spans recorded)"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        assert counter.count == 3
        with pytest.raises(MetricsError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_histogram_buckets_values(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 1000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1010.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 1000.0
        assert snap["buckets"] == {"1": 1, "10": 2, "+Inf": 1}

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(MetricsError):
            Histogram(bounds=())

    def test_log_buckets_span_the_default_range(self):
        bounds = log_buckets()
        assert bounds[0] <= 1e-6
        assert bounds[-1] >= 1e4
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_log_buckets_validate_inputs(self):
        with pytest.raises(MetricsError):
            log_buckets(lo=0.0)
        with pytest.raises(MetricsError):
            log_buckets(lo=2.0, hi=1.0)
        with pytest.raises(MetricsError):
            log_buckets(per_decade=0)

    def test_noop_instrument_absorbs_everything(self):
        NOOP_INSTRUMENT.inc()
        NOOP_INSTRUMENT.dec()
        NOOP_INSTRUMENT.set(5)
        NOOP_INSTRUMENT.observe(1.0)
        assert NOOP_INSTRUMENT.value == 0.0
        assert NOOP_INSTRUMENT.snapshot() == 0.0


class TestRegistry:
    def test_same_identity_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", route="a")
        b = registry.counter("hits", route="a")
        c = registry.counter("hits", route="b")
        assert a is b
        assert a is not c

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_series_and_series_values(self):
        registry = MetricsRegistry()
        registry.counter("q", reason="bad").inc(2)
        registry.counter("q", reason="late").inc(1)
        assert registry.series_values("q") == {"bad": 2.0, "late": 1.0}
        assert len(registry.series("q")) == 2

    def test_format_series_is_the_snapshot_key(self):
        assert format_series("n", ()) == "n"
        assert (
            format_series("n", (("a", "1"), ("b", "2"))) == "n{a=1,b=2}"
        )

    def test_snapshot_is_sorted_and_json_stable(self):
        def build() -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("z").inc()
            registry.counter("a", k="2").inc()
            registry.counter("a", k="1").inc()
            registry.gauge("depth").set(3)
            registry.histogram("lat").observe(0.5)
            return registry

        one, two = build().snapshot(), build().snapshot()
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )
        assert list(one["counters"]) == ["a{k=1}", "a{k=2}", "z"]

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0.0
        assert registry.counter("c") is counter

    def test_describe_and_kind_of(self):
        registry = MetricsRegistry()
        registry.counter("c", "how many")
        assert registry.describe("c") == "how many"
        assert registry.kind_of("c") == "counter"
        with pytest.raises(MetricsError):
            registry.kind_of("nope")


class TestCatalog:
    def test_catalog_names_are_unique(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))
        assert catalog_by_name().keys() == set(names)

    def test_register_catalog_creates_label_free_instruments(self):
        registry = MetricsRegistry()
        register_catalog(registry)
        assert "ingest.events" in registry.names()
        assert registry.kind_of("retry.attempts") == "histogram"
        # Labeled families only materialize per label value.
        assert registry.series("ingest.quarantined") == {}


# ---------------------------------------------------------------------------
# Structured logs
# ---------------------------------------------------------------------------


class TestLogs:
    def test_formatter_attaches_span_and_seed(self):
        formatter = JsonLogFormatter(span_id_fn=lambda: 42, seed=2018)
        record = logging.LogRecord(
            "repro.obs", logging.INFO, __file__, 1, "ingest.reap", (), None
        )
        record.repro_fields = {"why": "stale"}
        payload = json.loads(formatter.format(record))
        assert payload == {
            "event": "ingest.reap",
            "level": "info",
            "logger": "repro.obs",
            "seed": 2018,
            "span_id": 42,
            "why": "stale",
        }

    def test_handler_roundtrip_one_json_line_per_event(self):
        stream = io.StringIO()
        handler = install_handler(stream=stream, span_id_fn=lambda: None)
        try:
            log_event(get_logger("test"), "hello", n=1)
        finally:
            remove_handler(handler)
        (line,) = stream.getvalue().splitlines()
        assert json.loads(line)["event"] == "hello"
        assert json.loads(line)["n"] == 1

    def test_log_event_respects_level(self):
        stream = io.StringIO()
        handler = install_handler(stream=stream, level=logging.WARNING)
        try:
            log_event(get_logger("test"), "quiet", level=logging.DEBUG)
        finally:
            remove_handler(handler)
        assert stream.getvalue() == ""


# ---------------------------------------------------------------------------
# The facade: enabled vs disabled paths
# ---------------------------------------------------------------------------


class TestObsContext:
    def test_disabled_context_never_reads_the_clock(self):
        calls = []

        def tick() -> float:
            calls.append(1)
            return 0.0

        ctx = ObsContext(enabled=False, clock=CallableClock(tick))
        with ctx.span("work") as span:
            span.set(rows=3)
        ctx.counter("c").inc()
        ctx.gauge("g").set(1)
        ctx.histogram("h").observe(2.0)
        ctx.emit("event", n=1)
        assert calls == []
        assert ctx.tracer.finished == []
        assert ctx.registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_disabled_span_is_the_shared_null_context(self):
        ctx = ObsContext(enabled=False)
        assert ctx.span("a") is NULL_SPAN_CONTEXT
        assert ctx.counter("c") is NOOP_INSTRUMENT

    def test_enabled_context_records_exact_durations(self):
        clock = FakeClock()
        ctx = ObsContext(enabled=True, clock=clock)
        with ctx.span("outer"):
            clock.advance(1.0)
            with ctx.span("inner"):
                clock.advance(0.25)
        inner, outer = ctx.tracer.finished
        assert (inner.name, inner.duration) == ("inner", 0.25)
        assert (outer.name, outer.duration) == ("outer", 1.25)

    def test_configure_swaps_the_clock_in_place(self):
        ctx = ObsContext(enabled=True)
        fake = FakeClock()
        ctx.configure(enabled=True, clock=fake)
        with ctx.span("s") as span:
            fake.advance(3.0)
        assert span.duration == 3.0

    def test_emit_stamps_span_id_and_seed(self):
        stream = io.StringIO()
        clock = FakeClock()
        ctx = ObsContext(enabled=True, clock=clock)
        ctx.configure(enabled=True, seed=7, log_stream=stream)
        try:
            with ctx.span("ingest.batch") as span:
                ctx.emit("ingest.reap", why="stale")
        finally:
            ctx.configure(enabled=False)
        payload = json.loads(stream.getvalue())
        assert payload["seed"] == 7
        assert payload["span_id"] == span.span_id
        assert payload["why"] == "stale"

    def test_reset_clears_data_keeps_config(self):
        ctx = ObsContext(enabled=True, clock=FakeClock())
        with ctx.span("s"):
            ctx.counter("c").inc()
        ctx.reset()
        assert ctx.enabled
        assert ctx.tracer.finished == []
        assert ctx.registry.counter("c").value == 0.0


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _traced_context() -> ObsContext:
    clock = FakeClock()
    ctx = ObsContext(enabled=True, clock=clock)
    with ctx.span("stage.a"):
        clock.advance(1.0)
        ctx.counter("hits").inc(3)
    with ctx.span("stage.a"):
        clock.advance(3.0)
    with ctx.span("stage.b", rows=2):
        clock.advance(0.5)
    return ctx


class TestExport:
    def test_snapshot_payload_shape(self):
        ctx = _traced_context()
        payload = snapshot_payload(
            ctx.registry, spans=ctx.tracer.finished, meta={"cmd": "x"}
        )
        assert payload["schema"] == 1
        assert payload["metrics"]["counters"]["hits"] == 3.0
        assert [row["name"] for row in payload["spans"]] == [
            "stage.a",
            "stage.a",
            "stage.b",
        ]
        assert payload["meta"] == {"cmd": "x"}

    def test_span_rows_carry_sorted_attrs(self):
        ctx = _traced_context()
        rows = snapshot_payload(ctx.registry, spans=ctx.tracer.finished)
        assert rows["spans"][2]["attrs"] == {"rows": 2}
        assert rows["spans"][2]["duration_s"] == 0.5

    def test_write_snapshot_roundtrips(self, tmp_path):
        ctx = _traced_context()
        path = tmp_path / "m.json"
        written = write_snapshot(str(path), ctx.registry)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(written)
        )

    def test_to_json_is_sorted_with_trailing_newline(self):
        text = to_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
