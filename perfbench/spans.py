"""Span recording for the traced run, kept in the benchmark's own files.

``SpanRecorder.install`` replaces public functions of ``repro`` with
wrappers at the names their callers look up (a class attribute, or a
module global where a caller imported the function by name).  Each
wrapper records one span: name, start, end and parent.  Spans stay in
memory; ``self_times`` turns them into self time per name, and the
layer rollup sums self time per ``src/repro`` layer.

Nothing here runs in an untraced run: the wrappers are installed only
by ``--trace 1``.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's spans, -1 for a root


#: Span name -> layer, for the self-time rollup; ``figure.<ID>`` spans
#: belong to ``figures`` too.
LAYERS: Dict[str, str] = {
    "synthesis.generate": "synthesis",
    "synthesis.snapshot": "synthesis",
    "synthesis.case_study": "synthesis",
    "playback.session": "playback",
    "playback.projection": "playback",
    "delivery.chunk_sampling": "delivery",
    "dataset.build": "telemetry-read",
    "columnar.intern": "telemetry-read",
    "dataset.filter": "telemetry-read",
    "dataset.save": "telemetry-write",
    "dataset.load": "telemetry-write",
    "backend.rollups": "telemetry-write",
    "ingest.batch": "telemetry-ingest",
    "figures.suite": "figures",
    "lint.run": "lint",
    "analysis.run": "analysis",
    "analysis.parse": "analysis",
    "analysis.callgraph": "analysis",
    "analysis.effects": "analysis",
}
#: Time inside a round that no span covers: benchmark glue and program
#: code outside the wrapped functions.
UNATTRIBUTED = "unattributed"
LAYER_ORDER = tuple(dict.fromkeys(LAYERS.values())) + (UNATTRIBUTED,)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


class SpanRecorder:
    """In-memory spans plus per-name counts, for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(
        self,
        name: "str | Callable[..., str]",
        fn: Callable,
        count: Optional[Callable[..., Dict[str, float]]] = None,
        when: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``name`` may be a function of the call's arguments; ``count``
        maps ``(result, *args, **kwargs)`` to counts added after the
        call; ``when`` skips recording for calls it rejects.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            index = len(self.spans)
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            self.add(label + ".calls")
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    self.add(key, value)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> Tuple[List[Span], Dict[str, float]]:
        """Hand over and forget everything recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    def install(self) -> None:
        """Wrap the program's public functions at their lookup names."""
        from repro import figures
        from repro.analysis import engine as analysis_engine
        from repro.core import integrated
        from repro.delivery.network import NetworkPath
        from repro.lint import engine as lint_engine
        from repro.synthesis import sessions
        from repro.synthesis.generator import EcosystemGenerator
        from repro.synthesis.sessions import SessionSampler
        from repro.telemetry.backend import TelemetryBackend
        from repro.telemetry.columnar import ColumnStore
        from repro.telemetry.dataset import Dataset

        def method(owner, attr, name, **kw):
            self.patch(owner, attr, self.wrap(name, owner.__dict__[attr], **kw))

        method(
            EcosystemGenerator, "generate", "synthesis.generate",
            count=lambda r, *a, **k: {"synthesis.records": len(r.dataset)},
        )
        method(
            SessionSampler, "snapshot_records", "synthesis.snapshot",
            count=lambda r, *a, **k: {"synthesis.snapshot_records": len(r)},
        )
        method(SessionSampler, "case_study_records", "synthesis.case_study")
        session = self.wrap(
            "playback.session", sessions.simulate_session,
            count=lambda r, *a, **k: {"playback.chunks": r.chunk_count},
        )
        self.patch(sessions, "simulate_session", session)
        self.patch(integrated, "simulate_session", session)
        self.patch(
            integrated, "integrated_qoe_projection",
            self.wrap("playback.projection", integrated.integrated_qoe_projection),
        )
        method(NetworkPath, "sample_chunk_throughputs", "delivery.chunk_sampling")
        self.patch(figures, "run_suite", self.wrap("figures.suite", figures.run_suite))
        self.patch(
            figures, "run_figure",
            self.wrap(lambda fid, *a, **k: f"figure.{fid}", figures.run_figure),
        )
        method(
            ColumnStore, "field_codes", "columnar.intern",
            when=lambda store, field: field not in store._codes,
        )
        method(
            ColumnStore, "derived_codes", "columnar.intern",
            when=lambda store, key: key.name not in store._codes,
        )
        method(
            ColumnStore, "numeric", "columnar.intern",
            when=lambda store, name: name not in store._numeric,
        )
        method(Dataset, "__init__", "dataset.build")
        method(Dataset, "filter", "dataset.filter")
        method(
            Dataset, "save", "dataset.save",
            count=lambda r, ds, path: {
                "dataset.saved_bytes": os.path.getsize(path),
                "dataset.saved_records": len(ds),
            },
        )
        load = Dataset.__dict__["load"].__func__
        self.patch(Dataset, "load", classmethod(self.wrap(
            "dataset.load", load,
            count=lambda r, *a, **k: {"dataset.loaded_records": len(r)},
        )))
        method(
            TelemetryBackend, "ingest_events", "ingest.batch",
            count=lambda r, *a, **k: {
                "ingest.events": r.total_events,
                "ingest.accepted": r.accepted,
                "ingest.deduped": r.deduped,
                "ingest.quarantined": r.quarantined,
                "ingest.records": len(r.records),
            },
        )
        method(TelemetryBackend, "combo_rollups", "backend.rollups")
        self.patch(lint_engine, "run_lint", self.wrap(
            "lint.run", lint_engine.run_lint,
            count=lambda r, *a, **k: {
                "lint.files": r.files_checked, "lint.findings": len(r.findings),
            },
        ))
        self.patch(analysis_engine, "run_analysis", self.wrap(
            "analysis.run", analysis_engine.run_analysis,
            count=lambda r, *a, **k: {
                "analysis.call_edges": r.stats["call_edges"],
                "analysis.findings": len(r.findings),
            },
        ))
        for attr, name in (
            ("load_project", "analysis.parse"),
            ("build_call_graph", "analysis.callgraph"),
            ("EffectAnalysis", "analysis.effects"),
        ):
            self.patch(
                analysis_engine, attr,
                self.wrap(name, getattr(analysis_engine, attr)),
            )


def rollup(
    spans: Sequence[Span], round_windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Inclusive and self seconds per span name, and self seconds per layer.

    ``round_windows`` are the timed rounds' ``(start, end)``; only spans
    inside them count, and round time no root span covers is
    :data:`UNATTRIBUTED`.
    """
    selfs = self_times(spans)
    inclusive: Dict[str, float] = {}
    own: Dict[str, float] = {}
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYER_ORDER}
    roots: List[Tuple[float, float]] = []
    for span, self_s in zip(spans, selfs):
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.end - span.start
        own[span.name] = own.get(span.name, 0.0) + self_s
        layer = LAYERS.get(span.name, "figures" if span.name.startswith("figure.") else None)
        if layer is not None:
            layers[layer] += self_s
        if span.parent < 0:
            roots.append((span.start, span.end))
    for lo, hi in round_windows:
        layers[UNATTRIBUTED] += (hi - lo) - covered(roots, lo, hi)
    return inclusive, own, layers
