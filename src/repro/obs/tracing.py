"""Nestable spans carried via :mod:`contextvars`.

``with tracer.span("ingest.batch", n=123) as sp`` opens a span, makes
it the ambient parent for any span opened inside the block (including
across generator frames, courtesy of contextvars), and records its
wall time through the tracer's injectable clock.  Span ids are a plain
process-local counter — deterministic, unlike random trace ids, so a
``--trace`` dump from a seeded run is itself reproducible apart from
the timings.

When tracing is disabled the obs facade hands out a shared no-op
context manager instead, so instrumented code pays one attribute check
and zero clock reads.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.obs.clock import Clock, MonotonicClock


@dataclass
class Span:
    """One live (or finished) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def set(self, **attrs: object) -> "Span":
        """Attach attributes (entity counts, row counts, ...)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


class _NullSpan:
    """The disabled-path span: absorbs ``set`` calls, records nothing."""

    span_id = 0
    parent_id = None
    name = ""
    duration = 0.0
    attrs: Dict[str, object] = {}

    def set(self, **attrs: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager; stateless, so one instance."""

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Creates spans, tracks the ambient parent, keeps finished spans.

    ``finished`` holds completed spans in completion order (children
    before parents, as with any post-order walk); :func:`render_tree`
    re-nests them for display.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or MonotonicClock()
        self.finished: List[Span] = []
        self._next_id = 1
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )

    @property
    def current(self) -> Optional[Span]:
        return self._current.get()

    @property
    def current_span_id(self) -> Optional[int]:
        span = self._current.get()
        return span.span_id if span is not None else None

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._current.get()
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=self.clock.now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)
            span.end = self.clock.now()
            self.finished.append(span)

    def adopt(self, spans: Sequence[Span]) -> List[Span]:
        """Graft finished spans from another tracer into this one.

        Worker processes record spans against their own tracer (ids
        restart at 1 per worker), so the parent re-numbers them here:
        every adopted span gets a fresh sequential id, intra-batch
        parent links are remapped, and batch roots are re-parented
        under the ambient span, i.e. the fan-out span that collected
        the batch.  Ids are assigned in the batch's creation order and
        batches are adopted in unit-index order, so the merged tree is
        deterministic no matter how workers were scheduled.  Returns
        the new spans.
        """
        parent_id = self.current_span_id
        id_map: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: s.span_id):
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        adopted: List[Span] = []
        for span in spans:  # keep the worker's completion order
            remapped = Span(
                span_id=id_map[span.span_id],
                parent_id=(
                    parent_id
                    if span.parent_id is None
                    else id_map.get(span.parent_id, parent_id)
                ),
                name=span.name,
                start=span.start,
                end=span.end,
                attrs=dict(span.attrs),
            )
            adopted.append(remapped)
            self.finished.append(remapped)
        return adopted

    def reset(self) -> None:
        self.finished.clear()
        self._next_id = 1


def render_tree(spans: List[Span]) -> str:
    """ASCII tree of finished spans with durations (ms) and attributes.

    Orphan spans (parent never finished, e.g. tracer enabled mid-run)
    render as roots.  Sibling order is span-id order — creation order,
    hence deterministic for a seeded run.
    """
    if not spans:
        return "(no spans recorded)"
    by_id = {span.span_id: span for span in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)

    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        attrs = ""
        if span.attrs:
            inner = " ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
            attrs = f"  [{inner}]"
        lines.append(
            f"{indent}{span.name}  {span.duration * 1e3:.3f}ms{attrs}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
