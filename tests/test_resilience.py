"""Resilience primitives: retry/backoff and the circuit breaker."""

import pytest

from repro.errors import (
    CircuitOpenError,
    ResilienceError,
    RetryExhaustedError,
    TransportError,
)
from repro.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitState,
    retry_with_backoff,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBackoffPolicy:
    def test_deterministic_schedule_without_jitter(self):
        policy = BackoffPolicy(
            retries=4, base_delay=1.0, multiplier=2.0, max_delay=100.0,
            jitter=0.0,
        )
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0]

    def test_schedule_caps_at_max_delay(self):
        policy = BackoffPolicy(
            retries=6, base_delay=1.0, multiplier=2.0, max_delay=5.0,
            jitter=0.0,
        )
        assert policy.schedule() == [1.0, 2.0, 4.0, 5.0, 5.0, 5.0]

    def test_jitter_bounds_and_seed_determinism(self):
        policy = BackoffPolicy(
            retries=50, base_delay=1.0, multiplier=1.0, max_delay=1.0,
            jitter=0.5,
        )
        schedule = policy.schedule(seed=7)
        assert schedule == policy.schedule(seed=7)
        assert all(0.5 <= d <= 1.0 for d in schedule)
        assert schedule != policy.schedule(seed=8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ResilienceError):
            BackoffPolicy(retries=-1)
        with pytest.raises(ResilienceError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ResilienceError):
            BackoffPolicy(jitter=1.5)


class TestRetryWithBackoff:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransportError("boom")
            return "ok"

        result = retry_with_backoff(
            flaky, retry_on=(TransportError,), seed=0
        )
        assert result == "ok"
        assert len(calls) == 3

    def test_exhaustion_raises_typed_error_with_cause(self):
        def always_fails():
            raise TransportError("down")

        policy = BackoffPolicy(retries=3, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            retry_with_backoff(
                always_fails, policy=policy, retry_on=(TransportError,)
            )
        assert info.value.attempts == 4
        assert isinstance(info.value.last_error, TransportError)
        assert isinstance(info.value.__cause__, TransportError)

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def wrong_error():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry_with_backoff(wrong_error, retry_on=(TransportError,))
        assert len(calls) == 1

    def test_sleeper_receives_policy_schedule(self):
        waits = []
        attempts = []

        def always_fails():
            attempts.append(1)
            raise TransportError("down")

        policy = BackoffPolicy(
            retries=3, base_delay=1.0, multiplier=2.0, max_delay=10.0,
            jitter=0.0,
        )
        with pytest.raises(RetryExhaustedError):
            retry_with_backoff(
                always_fails, policy=policy, retry_on=(TransportError,),
                sleep=waits.append,
            )
        assert waits == [1.0, 2.0, 4.0]
        assert len(attempts) == 4


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        assert breaker.state is CircuitState.CLOSED
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_open_circuit_rejects_calls(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        with pytest.raises(TransportError):
            breaker.call(lambda: (_ for _ in ()).throw(TransportError("x")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")
        assert breaker.rejected_calls == 1

    def test_half_open_probe_then_close_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        clock.advance(31.0)
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.call(lambda: "probe ok") == "probe ok"
        assert breaker.state is CircuitState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, recovery_timeout=30.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        clock.advance(31.0)
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_failure()  # single probe failure re-opens
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(31.0)
        # Inspecting state must not claim the probe slot.
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.state is CircuitState.HALF_OPEN
        # First allow() claims the single probe; concurrent callers in
        # the same half-open window are rejected.
        assert breaker.allow()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.state is CircuitState.HALF_OPEN

    def test_probe_slot_refreshes_each_half_open_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(31.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: back to OPEN
        assert breaker.state is CircuitState.OPEN
        clock.advance(31.0)
        # A fresh half-open window must offer a fresh probe slot.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        # Closed again: allow() is unrestricted.
        assert breaker.allow()
        assert breaker.allow()
