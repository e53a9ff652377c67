"""The CDN broker and the resilient multi-CDN fetcher.

§2/§4.3: publishers use multiple CDNs for performance and availability;
some route through a broker that picks the best CDN per view and offers
monitoring even to single-CDN publishers; a significant fraction of
publishers segregate live and VoD traffic by CDN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.constants import ContentType
from repro.entities.cdn import CdnAssignment
from repro.errors import (
    AllCdnsFailedError,
    DeliveryError,
    RetryExhaustedError,
    TransportError,
)
from repro.resilience import BackoffPolicy, CircuitBreaker, retry_with_backoff


def eligible(
    assignments: Sequence[CdnAssignment], content_type: ContentType
) -> Tuple[CdnAssignment, ...]:
    """The assignments that serve ``content_type``; at least one."""
    chosen = tuple(a for a in assignments if a.serves(content_type))
    if not chosen:
        raise DeliveryError(
            f"no CDN assignment serves {content_type.value} content"
        )
    return chosen


@dataclass
class BrokerDecision:
    """One broker selection with the evidence behind it."""

    cdn_name: str
    predicted_kbps: float
    scores: Dict[str, float] = field(default_factory=dict)


class CdnBroker:
    """A measurement-driven CDN broker (§2, [72]).

    Maintains an exponentially weighted moving average of observed
    throughput per CDN and picks the current best; with probability
    ``explore`` it samples a non-best CDN to keep estimates fresh.
    """

    def __init__(self, explore: float = 0.1, alpha: float = 0.3) -> None:
        if not 0.0 <= explore < 1.0:
            raise DeliveryError("explore must be in [0, 1)")
        if not 0.0 < alpha <= 1.0:
            raise DeliveryError("alpha must be in (0, 1]")
        self.explore = explore
        self.alpha = alpha
        self._ewma_kbps: Dict[str, float] = {}

    def observe(self, cdn_name: str, throughput_kbps: float) -> None:
        """Feed one throughput measurement for a CDN."""
        if throughput_kbps < 0:
            raise DeliveryError("throughput must be non-negative")
        prior = self._ewma_kbps.get(cdn_name)
        if prior is None:
            self._ewma_kbps[cdn_name] = throughput_kbps
        else:
            self._ewma_kbps[cdn_name] = (
                self.alpha * throughput_kbps + (1 - self.alpha) * prior
            )

    def estimate(self, cdn_name: str) -> Optional[float]:
        return self._ewma_kbps.get(cdn_name)

    def select(
        self,
        assignments: Sequence[CdnAssignment],
        content_type: ContentType,
        rng: np.random.Generator,
    ) -> BrokerDecision:
        names = [a.cdn.name for a in eligible(assignments, content_type)]
        scores = {
            name: self._ewma_kbps.get(name, float("inf")) for name in names
        }
        # Unmeasured CDNs score infinity so each gets probed once.
        best = max(names, key=lambda name: scores[name])
        if len(names) > 1 and rng.random() < self.explore:
            others = [name for name in names if name != best]
            best = others[int(rng.integers(len(others)))]
        predicted = scores[best]
        return BrokerDecision(
            cdn_name=best,
            predicted_kbps=predicted if predicted != float("inf") else 0.0,
            scores={k: (v if v != float("inf") else 0.0) for k, v in scores.items()},
        )

    def ranked(
        self,
        assignments: Sequence[CdnAssignment],
        content_type: ContentType,
    ) -> List[str]:
        """Eligible CDNs, best estimated throughput first (unmeasured
        CDNs rank first so each gets probed)."""
        names = [a.cdn.name for a in eligible(assignments, content_type)]
        return sorted(
            names,
            key=lambda name: self._ewma_kbps.get(name, float("inf")),
            reverse=True,
        )


@dataclass(frozen=True)
class CdnAttempt:
    """Why one CDN did not serve a resilient fetch.

    ``outcome`` is ``"failed"`` (retries exhausted against this CDN) or
    ``"circuit-open"`` (skipped without trying).  ``attempts`` counts
    individual tries against this CDN (0 when skipped) and ``elapsed``
    is the time the fetcher spent on it per its injected clock.
    """

    cdn_name: str
    outcome: str
    attempts: int
    elapsed: float
    error: str = ""


@dataclass(frozen=True)
class FailoverOutcome:
    """Result of one resilient fetch: which CDN served, how hard it was."""

    cdn_name: str
    value: object
    attempts: int
    failed_cdns: Tuple[str, ...]
    skipped_open_circuits: Tuple[str, ...]


class ResilientFetcher:
    """CDN failover with per-CDN retry/backoff and circuit breakers.

    §2/§4.3 publishers keep multiple CDNs precisely for availability:
    when the preferred CDN fails, traffic must fail over rather than
    error out.  Each CDN gets its own :class:`CircuitBreaker`, so a CDN
    in sustained failure is skipped outright until its recovery window
    elapses; within a CDN, transient failures are retried with
    exponential backoff before failing over to the next-ranked CDN.
    """

    def __init__(
        self,
        broker: CdnBroker,
        *,
        policy: Optional[BackoffPolicy] = None,
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ) -> None:
        self.broker = broker
        self.policy = policy or BackoffPolicy(retries=2, base_delay=0.01)
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._seed = seed
        self._calls = 0
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, cdn_name: str) -> CircuitBreaker:
        if cdn_name not in self._breakers:
            self._breakers[cdn_name] = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                recovery_timeout=self.recovery_timeout,
                clock=self._clock,
                name=f"cdn:{cdn_name}",
            )
        return self._breakers[cdn_name]

    def fetch(
        self,
        assignments: Sequence[CdnAssignment],
        content_type: ContentType,
        fetch: Callable[[str], object],
    ) -> FailoverOutcome:
        """Fetch via the best available CDN, failing over on errors.

        ``fetch(cdn_name)`` performs the actual transfer; transient
        failures it raises (:class:`DeliveryError`,
        :class:`TransportError`) are retried with backoff, then the
        next-ranked CDN is tried.  Raises :class:`AllCdnsFailedError`
        (a :class:`DeliveryError`) only when every eligible CDN is down
        or circuit-open, with per-CDN :class:`CdnAttempt` attribution.
        """
        self._calls += 1
        attempts_total = 0
        attribution: List[CdnAttempt] = []
        failed: List[str] = []
        skipped: List[str] = []
        for name in self.broker.ranked(assignments, content_type):
            breaker = self.breaker(name)
            if not breaker.allow():
                breaker.rejected_calls += 1
                obs.counter("multicdn.circuit_skipped", cdn=name).inc()
                skipped.append(name)
                attribution.append(
                    CdnAttempt(
                        cdn_name=name,
                        outcome="circuit-open",
                        attempts=0,
                        elapsed=0.0,
                        error="circuit open; skipped without trying",
                    )
                )
                continue
            started = self._clock()
            try:
                value = retry_with_backoff(
                    lambda name=name: fetch(name),
                    policy=self.policy,
                    retry_on=(DeliveryError, TransportError),
                    seed=self._seed + self._calls,
                )
            except RetryExhaustedError as exc:
                breaker.record_failure()
                attempts_total += exc.attempts
                failed.append(name)
                attribution.append(
                    CdnAttempt(
                        cdn_name=name,
                        outcome="failed",
                        attempts=exc.attempts,
                        elapsed=self._clock() - started,
                        error=str(exc.last_error) if exc.last_error else str(exc),
                    )
                )
                obs.counter("multicdn.failover", cdn=name).inc()
                obs.emit(
                    "multicdn.failover",
                    cdn=name,
                    attempts=exc.attempts,
                    content_type=content_type.value,
                )
                continue
            breaker.record_success()
            attempts_total += 1
            obs.counter("multicdn.served", cdn=name).inc()
            return FailoverOutcome(
                cdn_name=name,
                value=value,
                attempts=attempts_total,
                failed_cdns=tuple(failed),
                skipped_open_circuits=tuple(skipped),
            )
        obs.counter("multicdn.exhausted").inc()
        raise AllCdnsFailedError(
            "all eligible CDNs failed "
            f"(failed={failed}, circuit-open={skipped})",
            attribution=tuple(attribution),
        )
