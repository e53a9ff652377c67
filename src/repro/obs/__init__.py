"""``repro.obs`` — structured tracing, metrics, and logs in one facade.

The management-plane pipeline (synthesis -> ingest -> core stats ->
figures) is instrumented through this module's free functions::

    from repro import obs

    with obs.span("ingest.batch", n=len(events)) as sp:
        ...
        sp.set(accepted=report.accepted)
    obs.counter("multicdn.failover", cdn=name).inc()
    obs.emit("breaker.transition", breaker=name, to="open")

Observability is **off by default** and the disabled path is a no-op:
``span`` hands back a shared null context manager (no clock reads, no
allocation beyond one attribute check) and the instrument accessors
hand back a shared null instrument.  Because none of the recorded data
ever feeds an analysis, output is byte-identical with obs on or off —
the determinism suite asserts exactly that.

Three invariants keep this layer compatible with the replint rule pack:

* all durations flow through an injectable :class:`~repro.obs.clock.Clock`
  (RPL002/RPL007 — only ``obs/clock.py`` touches :mod:`time`);
* span ids are sequential, not random (RPL001);
* snapshots sort every key (RPL006).
"""

from __future__ import annotations

import logging
from typing import IO, Optional

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.instruments import register_catalog
from repro.obs.logs import get_logger, install_handler, log_event, remove_handler
from repro.obs.metrics import NOOP_INSTRUMENT, MetricsRegistry
from repro.obs.tracing import NULL_SPAN_CONTEXT, Tracer


class ObsContext:
    """One observability universe: clock + registry + tracer + logs.

    The module keeps a process-global instance wired to the free
    functions below; tests construct private ones with a
    :class:`~repro.obs.clock.FakeClock` to make span durations exact.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Optional[Clock] = None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock or MonotonicClock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock)
        self.seed: Optional[int] = None
        self._log_handler: Optional[logging.Handler] = None

    # -- lifecycle -------------------------------------------------------

    def configure(
        self,
        enabled: bool = True,
        clock: Optional[Clock] = None,
        seed: Optional[int] = None,
        log_stream: Optional[IO[str]] = None,
        log_level: int = logging.INFO,
    ) -> "ObsContext":
        """(Re)configure in place; returns self for chaining."""
        self.enabled = enabled
        if clock is not None:
            self.clock = clock
            self.tracer.clock = clock
        if seed is not None:
            self.seed = seed
        if self._log_handler is not None:
            remove_handler(self._log_handler)
            self._log_handler = None
        if enabled and log_stream is not None:
            self._log_handler = install_handler(
                stream=log_stream,
                level=log_level,
                span_id_fn=lambda: self.tracer.current_span_id,
                seed=self.seed,
            )
        if enabled:
            register_catalog(self.registry)
        return self

    def reset(self) -> None:
        """Clear recorded data; keeps configuration and instruments."""
        self.registry.reset()
        self.tracer.reset()

    # -- recording facade ------------------------------------------------

    def span(self, name: str, **attrs: object):
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        return self.tracer.span(name, **attrs)

    def counter(self, name: str, **labels: object):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: object):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: object):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self.registry.histogram(name, **labels)

    def emit(self, event: str, level: int = logging.INFO, **fields: object) -> None:
        if not self.enabled:
            return
        log_event(get_logger("obs"), event, level=level, **fields)


_CONTEXT = ObsContext()


def get_context() -> ObsContext:
    """The process-global observability context."""
    return _CONTEXT


def configure(**kwargs) -> ObsContext:
    """Configure the global context; see :meth:`ObsContext.configure`."""
    return _CONTEXT.configure(**kwargs)


def enabled() -> bool:
    return _CONTEXT.enabled


def metrics() -> MetricsRegistry:
    """The global registry (live even while recording is disabled)."""
    return _CONTEXT.registry


def tracer() -> Tracer:
    return _CONTEXT.tracer


def span(name: str, **attrs: object):
    return _CONTEXT.span(name, **attrs)


def counter(name: str, **labels: object):
    return _CONTEXT.counter(name, **labels)


def gauge(name: str, **labels: object):
    return _CONTEXT.gauge(name, **labels)


def histogram(name: str, **labels: object):
    return _CONTEXT.histogram(name, **labels)


def emit(event: str, level: int = logging.INFO, **fields: object) -> None:
    _CONTEXT.emit(event, level=level, **fields)


def current_span_id() -> Optional[int]:
    return _CONTEXT.tracer.current_span_id


def reset() -> None:
    _CONTEXT.reset()
