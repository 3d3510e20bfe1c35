"""Tests for the retry/backoff/deadline/breaker primitives."""

import asyncio

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ResilienceError,
    RetryExhaustedError,
)
from repro.obs.clock import FakeClock as ObsFakeClock
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    retry_call,
    retry_call_async,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Flaky:
    """Fails the first ``failures`` calls, then returns ``value``."""

    def __init__(self, failures, value="done", exc=OSError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom #{self.calls}")
        return self.value


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3)
        assert list(policy.delays()) == [0.1, 0.2, 0.3]

    def test_delay_is_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.5)
        assert policy.delay(3) == 2.5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRetryCall:
    def test_success_after_retries(self):
        fn = Flaky(2)
        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.5, multiplier=2.0)
        assert retry_call(fn, policy=policy, sleep=slept.append) == "done"
        assert fn.calls == 3
        assert slept == [0.5, 1.0]

    def test_exhaustion_raises_and_chains(self):
        fn = Flaky(10)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            retry_call(fn, policy=policy, sleep=lambda _: None)
        assert fn.calls == 3
        assert isinstance(info.value.__cause__, OSError)
        assert isinstance(info.value, ResilienceError)

    def test_non_retryable_propagates_immediately(self):
        fn = Flaky(1, exc=ValueError)
        policy = RetryPolicy(max_attempts=5, retry_on=(OSError,))
        with pytest.raises(ValueError):
            retry_call(fn, policy=policy, sleep=lambda _: None)
        assert fn.calls == 1

    def test_deadline_stops_retry_loop(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        fn = Flaky(10)

        def sleep(seconds):
            clock.advance(2.0)  # each backoff blows the budget

        policy = RetryPolicy(max_attempts=5, base_delay=0.1)
        with pytest.raises(DeadlineExceededError):
            retry_call(fn, policy=policy, sleep=sleep, deadline=deadline)
        assert fn.calls == 1

    def test_arguments_are_forwarded(self):
        policy = RetryPolicy(max_attempts=1)
        assert retry_call(
            lambda a, b=0: a + b, 2, policy=policy, b=3
        ) == 5


class TestDeadline:
    def test_never_expires(self):
        deadline = Deadline.never()
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()  # no raise

    def test_expiry_with_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(3.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="flush"):
            deadline.check("flush")

    def test_zero_budget_is_born_expired(self):
        deadline = Deadline.after(0.0, clock=FakeClock())
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_negative_budget_is_born_expired(self):
        # A caller computing `min(cap, client_budget)` can legitimately
        # end up negative; that must clamp to "expired", never wrap into
        # a huge remaining budget.
        deadline = Deadline.after(-5.0, clock=FakeClock())
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_expired_deadline_beats_first_async_attempt(self):
        # The budget can die between request arrival and the first
        # attempt (e.g. spent entirely in an admission queue); the
        # retry loop must raise before invoking the operation at all.
        calls = []

        async def op():
            calls.append(1)
            return "never"

        async def scenario():
            deadline = Deadline.after(0.0, clock=FakeClock())
            await retry_call_async(
                op, policy=RetryPolicy(max_attempts=3, base_delay=0.0),
                deadline=deadline,
            )

        with pytest.raises(DeadlineExceededError):
            asyncio.run(scenario())
        assert calls == []

    def test_async_budget_exhausted_mid_backoff(self):
        # The backoff sleep burns the rest of the budget: the loop must
        # stop with DeadlineExceededError before the next attempt, and
        # the backoff itself must have been clamped to the remaining
        # budget rather than sleeping the policy's full delay.
        clock = FakeClock()
        fn = Flaky(10)
        slept = []

        async def sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds + 0.5)  # sleep overshoots the budget

        async def scenario():
            deadline = Deadline.after(1.0, clock=clock)
            policy = RetryPolicy(max_attempts=5, base_delay=2.0)

            async def attempt():
                return fn()

            await retry_call_async(
                attempt, policy=policy, sleep=sleep, deadline=deadline,
            )

        with pytest.raises(DeadlineExceededError):
            asyncio.run(scenario())
        assert fn.calls == 1
        assert slept == [pytest.approx(1.0)]  # clamped from 2.0


class TestCircuitBreaker:
    def make(self, clock=None, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout", 10.0)
        return CircuitBreaker("dep", clock=clock or ObsFakeClock(), **kwargs)

    def trip(self, breaker):
        for _ in range(breaker.failure_threshold):
            breaker.before_call()
            breaker.record_failure()

    def test_starts_closed_and_stays_closed_below_threshold(self):
        breaker = self.make()
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.before_call()  # still admitted

    def test_threshold_consecutive_failures_trip_open(self):
        breaker = self.make()
        self.trip(breaker)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as info:
            breaker.before_call("query")
        assert info.value.retry_after == pytest.approx(10.0)

    def test_success_resets_the_failure_streak(self):
        breaker = self.make()
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        breaker.before_call()
        breaker.record_success()
        # The streak restarted: two more failures do not trip it.
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_reset_timeout_admits_one_probe(self):
        clock = ObsFakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before_call()  # the probe
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # quota of 1 is taken
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.before_call()  # closed again: calls flow

    def test_half_open_failure_reopens_for_a_full_window(self):
        clock = ObsFakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(5.0)
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_neutral_outcome_returns_the_probe_without_closing(self):
        # A client error during a half-open probe says nothing about the
        # dependency; the probe slot must come back so the next request
        # can actually test the path.
        clock = ObsFakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_neutral()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before_call()  # admitted again, no CircuitOpenError
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_transitions_and_snapshot(self):
        clock = ObsFakeClock()
        fired = []
        breaker = CircuitBreaker(
            "planner", failure_threshold=2, reset_timeout=4.0, clock=clock,
            on_transition=lambda prev, to: fired.append((prev, to)),
        )
        self.trip(breaker)
        clock.advance(4.0)
        breaker.before_call()
        breaker.record_success()
        assert fired == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed"),
        ]
        snapshot = breaker.snapshot()
        assert snapshot["name"] == "planner"
        assert snapshot["state"] == "closed"
        assert snapshot["opens"] == 1
        assert snapshot["transitions"] == [
            "closed->open", "open->half_open", "half_open->closed",
        ]

    def test_call_wrapper_drives_the_machine(self):
        breaker = self.make(failure_threshold=2)
        fn = Flaky(2)
        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(fn)
        with pytest.raises(CircuitOpenError):
            breaker.call(fn)
        assert fn.calls == 2  # the third call never reached fn

    def test_call_wrapper_failure_on_filter(self):
        # Exceptions outside failure_on are neutral: they propagate but
        # do not count against the dependency.
        breaker = self.make(failure_threshold=1)
        def bad_request():
            raise ValueError("client error")
        with pytest.raises(ValueError):
            breaker.call(bad_request, failure_on=(OSError,))
        assert breaker.state == CircuitBreaker.CLOSED

    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"reset_timeout": -1.0},
        {"half_open_max_probes": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)
