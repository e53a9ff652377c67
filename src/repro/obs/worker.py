"""Per-worker observability capture for process-pool fan-outs.

A pool worker cannot usefully mutate the parent's metrics registry —
under ``fork`` it mutates a silently diverging copy, under ``spawn`` a
fresh one.  Instead the worker side of a fan-out runs its unit inside
:func:`captured`: the global :class:`~repro.obs.ObsContext` temporarily
points at a *fresh* registry and tracer (and a buffering log handler
replaces any stream handler, so worker log lines never interleave on a
shared stderr), the unit runs, and everything recorded comes back as a
picklable :class:`WorkerObs` payload.  The parent folds payloads back
in unit-index order with :func:`absorb` — counter/histogram merges are
commutative, span ids are re-based sequentially, and buffered log
lines are re-emitted in order — so an observability-on parallel run
reports the same totals as the serial one.

When observability is disabled the capture is a no-op wrapper: the
unit runs directly and the payload is ``None`` (zero overhead, and the
disabled path stays byte-identical to the enabled one by the obs
layer's standing invariant).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import get_context
from repro.obs.logs import JsonLogFormatter, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer

T = TypeVar("T")


@dataclass(frozen=True)
class WorkerObs:
    """Everything one worker recorded while running one unit."""

    registry: MetricsRegistry
    spans: Tuple[Span, ...]
    log_lines: Tuple[str, ...]


class _BufferHandler(logging.Handler):
    """Collects formatted log lines instead of writing to a stream."""

    def __init__(self, sink: List[str]) -> None:
        super().__init__()
        self._sink = sink

    def emit(self, record: logging.LogRecord) -> None:
        self._sink.append(self.format(record))


def captured(
    fn: Callable[..., T], *args: object
) -> Tuple[T, Optional[WorkerObs]]:
    """Run ``fn(*args)`` with recording redirected to a fresh capture.

    Returns ``(result, payload)``; the payload is ``None`` when
    observability is disabled.  The previous context (registry,
    tracer, log handlers) is restored afterwards even on error, so
    nesting captures — a fan-out inside a fan-out — composes.
    """
    ctx = get_context()
    if not ctx.enabled:
        return fn(*args), None
    registry = MetricsRegistry()
    tracer = Tracer(clock=ctx.clock)
    lines: List[str] = []
    saved_registry = ctx.registry
    saved_tracer = ctx.tracer
    root = get_logger()
    saved_handlers = list(root.handlers)
    buffer = _BufferHandler(lines)
    buffer.setFormatter(JsonLogFormatter(seed=ctx.seed))
    ctx.registry = registry
    ctx.tracer = tracer
    for handler in saved_handlers:
        root.removeHandler(handler)
    root.addHandler(buffer)
    try:
        result = fn(*args)
    finally:
        ctx.registry = saved_registry
        ctx.tracer = saved_tracer
        root.removeHandler(buffer)
        for handler in saved_handlers:
            root.addHandler(handler)
    return result, WorkerObs(
        registry=registry,
        spans=tuple(tracer.finished),
        log_lines=tuple(lines),
    )


def absorb(payloads: Sequence[Optional[WorkerObs]]) -> None:
    """Fold worker captures into the live context, in the given order.

    Callers pass payloads in unit-index order; merge order is then
    deterministic regardless of worker scheduling (and for counters
    and histograms the result is order-invariant anyway).  ``None``
    entries — units run with observability off — are skipped.
    """
    ctx = get_context()
    if not ctx.enabled:
        return
    handlers = list(get_logger().handlers)
    for payload in payloads:
        if payload is None:
            continue
        ctx.registry.merge(payload.registry)
        ctx.tracer.adopt(payload.spans)
        for line in payload.log_lines:
            _reemit(handlers, line)


def _reemit(handlers: Sequence[logging.Handler], line: str) -> None:
    """Replay one already-formatted line through the live handlers.

    Inside a nested capture the live handler is the buffer (the line
    propagates outward with the worker's own); at the top level it is
    the configured stream handler, which writes it verbatim.
    """
    for handler in handlers:
        if isinstance(handler, _BufferHandler):
            handler._sink.append(line)
        else:
            stream = getattr(handler, "stream", None)
            if stream is not None:
                stream.write(line + "\n")


__all__ = ["WorkerObs", "absorb", "captured"]
