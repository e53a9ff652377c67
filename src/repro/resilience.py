"""Reusable resilience primitives: retry/backoff and a circuit breaker.

A production management-plane backend ingests telemetry from millions of
player SDKs over unreliable transports, so every remote hop needs the
same two guards: bounded retries with exponential backoff and jitter,
and a circuit breaker that stops hammering a failing dependency.  These
primitives are deterministic by construction — jitter comes from a
seeded RNG and both the sleeper and the clock are injectable — which
keeps simulations and tests reproducible while remaining drop-in usable
against wall-clock time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple, Type, TypeVar

from repro import obs
from repro.errors import (
    CircuitOpenError,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
)

T = TypeVar("T")


# ----------------------------------------------------------------------
# Retry with exponential backoff + jitter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule: ``base * multiplier**attempt``.

    ``jitter`` is the fraction of each delay that is randomized: a delay
    ``d`` becomes ``d * (1 - jitter + jitter * u)`` for ``u ~ U[0, 1)``,
    so ``jitter=0`` is fully deterministic and ``jitter=1`` spreads the
    delay uniformly over ``(0, d]``.
    """

    retries: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ResilienceError("retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ResilienceError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ResilienceError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter + self.jitter * rng.random())

    def schedule(self, seed: int = 0) -> List[float]:
        """The full delay schedule for one seeded run (for inspection)."""
        rng = random.Random(seed)
        return [self.delay(i, rng) for i in range(self.retries)]


def retry_with_backoff(
    fn: Callable[[], T],
    *,
    policy: Optional[BackoffPolicy] = None,
    retry_on: Tuple[Type[BaseException], ...] = (ResilienceError,),
    seed: int = 0,
    sleep: Optional[Callable[[float], None]] = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy's retries run out.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately.  ``sleep`` defaults to ``None`` (no actual
    sleeping — the schedule is still computed and reported), which keeps
    simulated workloads fast; pass ``time.sleep`` for wall-clock waits.
    On exhaustion raises
    :class:`RetryExhaustedError` chained to the last failure.
    """
    pol = policy or BackoffPolicy()
    rng = random.Random(seed)
    last: Optional[BaseException] = None
    attempts = 0
    for attempt in range(pol.retries + 1):
        attempts += 1
        try:
            result = fn()
        except retry_on as exc:  # noqa: PERF203 - the loop IS the point
            last = exc
            if attempt >= pol.retries:
                break
            wait = pol.delay(attempt, rng)
            if sleep is not None:
                sleep(wait)
        else:
            obs.histogram("retry.attempts").observe(attempts)
            return result
    obs.histogram("retry.attempts").observe(attempts)
    obs.counter("retry.exhausted").inc()
    raise RetryExhaustedError(
        f"gave up after {attempts} attempts: {last}",
        attempts=attempts,
        last_error=last if isinstance(last, Exception) else None,
    ) from last


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class CircuitState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic closed → open → half-open breaker.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``recovery_timeout`` seconds (per the injectable ``clock``) the next
    ``allow()`` transitions to half-open and admits **exactly one**
    probe call per half-open window: the first ``allow()`` claims the
    probe slot and further calls are rejected until the probe resolves
    (a success closes the circuit, a failure re-opens it).  Inspecting
    :attr:`state` never claims the slot.

    Only *operational* failures trip the breaker:
    :class:`~repro.errors.ReproError` (which covers every transport
    and delivery error this library raises) plus ``OSError`` for raw
    socket/file failures from user-supplied callables.  Programming
    errors — ``TypeError``, ``KeyError`` and friends — propagate
    without touching the failure count, so a code bug cannot mask
    itself as a downed dependency.

    ``name`` labels this breaker in the obs layer: every state
    transition increments ``breaker.transitions{breaker,from,to}`` and
    emits a structured ``breaker.transition`` log event, so a fleet of
    per-CDN breakers is triageable from one metrics snapshot.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "default",
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceError("failure_threshold must be >= 1")
        if recovery_timeout < 0:
            raise ResilienceError("recovery_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.name = name
        self._clock = clock
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._half_open_probe_claimed = False
        self.rejected_calls = 0

    @property
    def state(self) -> CircuitState:
        self._maybe_half_open()
        return self._state

    def _transition(self, new_state: CircuitState) -> None:
        """Move to ``new_state``, recording the edge if it is one."""
        old = self._state
        self._state = new_state
        if old is new_state:
            return
        if new_state is CircuitState.HALF_OPEN:
            # A fresh half-open window gets a fresh probe slot.
            self._half_open_probe_claimed = False
        obs.counter(
            "breaker.transitions",
            breaker=self.name,
            **{"from": old.value, "to": new_state.value},
        ).inc()
        obs.emit(
            "breaker.transition",
            breaker=self.name,
            from_state=old.value,
            to_state=new_state.value,
            consecutive_failures=self._consecutive_failures,
        )

    def _maybe_half_open(self) -> None:
        if self._state is CircuitState.OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.recovery_timeout:
                self._transition(CircuitState.HALF_OPEN)

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the half-open state a ``True`` return *claims* the single
        probe slot for this window; callers that get ``True`` must
        follow up with :meth:`record_success` or :meth:`record_failure`
        (as :meth:`call` does).  Concurrent callers see ``False`` until
        the probe resolves.
        """
        self._maybe_half_open()
        if self._state is CircuitState.HALF_OPEN:
            if self._half_open_probe_claimed:
                return False
            self._half_open_probe_claimed = True
            return True
        return self._state is not CircuitState.OPEN

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._half_open_probe_claimed = False
        self._transition(CircuitState.CLOSED)
        self._opened_at = None

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self._state is CircuitState.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self._transition(CircuitState.OPEN)
            self._opened_at = self._clock()

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` through the breaker, recording the outcome."""
        if not self.allow():
            self.rejected_calls += 1
            obs.counter("breaker.rejected", breaker=self.name).inc()
            raise CircuitOpenError(
                f"circuit open ({self._consecutive_failures} consecutive "
                "failures); call rejected"
            )
        try:
            result = fn()
        except (ReproError, OSError):
            self.record_failure()
            raise
        self.record_success()
        return result
