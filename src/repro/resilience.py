"""Retry, backoff and deadline primitives.

Persistent storage and the query service both need a uniform answer to
"this operation failed, now what?".  This module provides it:

* :class:`RetryPolicy` — how many attempts, which exceptions are
  retryable, and an exponential-backoff delay schedule;
* :class:`Deadline` — a monotonic-clock budget that can be threaded
  through nested operations;
* :func:`retry_call` / :func:`retry_call_async` — run a callable under
  a policy, raising :class:`~repro.errors.RetryExhaustedError` (chaining
  the final underlying exception) once the attempts are spent;
* :class:`CircuitBreaker` — a closed/open/half-open short-circuit
  around a repeatedly failing dependency, so callers stop burning
  retries against something that is down and fall back immediately.

Everything is deterministic and injectable: the sleep function and the
clock are parameters, so tests never wait on real time, and the fault
injection harness (:mod:`repro.faults`) composes naturally — an
injected fault that fires once is healed by the first retry.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from repro.obs.clock import Clock, MonotonicClock

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "Deadline",
    "check_seconds",
    "retry_call",
    "retry_call_async",
]

T = TypeVar("T")


def check_seconds(name: str, value: Optional[float], *, zero_ok: bool,
                  unbounded_ok: bool = False) -> None:
    """Refuse a timing setting that is not finite seconds > 0 (>= 0 with
    ``zero_ok``).  ``None`` passes with ``unbounded_ok``: it is the one
    spelling of "no bound", so NaN and infinity are refused (a hint
    derived from them would not convert to whole milliseconds)."""
    if value is None and unbounded_ok:
        return
    if value is None or not math.isfinite(value) or not (
            value >= 0 if zero_ok else value > 0):
        bound = ">= 0" if zero_ok else "> 0"
        unbounded = "None or " if unbounded_ok else ""
        raise ValueError(
            f"{name} must be {unbounded}finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """How an operation is retried: attempts, backoff, retryable errors.

    ``max_attempts`` counts the first try, so ``max_attempts=3`` means
    "try, then retry at most twice".  The delay before retry *k*
    (1-based) is ``min(base_delay * multiplier**(k-1), max_delay)``.
    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, retry_number: int) -> float:
        """Backoff delay before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        return min(self.base_delay * self.multiplier ** (retry_number - 1),
                   self.max_delay)

    def delays(self) -> Iterator[float]:
        """The full backoff schedule (``max_attempts - 1`` delays)."""
        return (self.delay(k) for k in range(1, self.max_attempts))


class Deadline:
    """A wall-clock budget measured on a monotonic clock.

    ``Deadline.after(2.0)`` expires two seconds from now;
    ``Deadline.never()`` never expires.  The clock is injectable for
    deterministic tests.
    """

    __slots__ = ("_clock", "_expires_at")

    def __init__(self, seconds: Optional[float], *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def after(cls, seconds: float, *,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds, clock=clock)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0), or ``None`` if unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(f"deadline expired before {what}")

    def __repr__(self) -> str:
        remaining = self.remaining()
        budget = "unbounded" if remaining is None else f"{remaining:.3f}s left"
        return f"Deadline({budget})"


class CircuitBreaker:
    """A closed/open/half-open short-circuit around a failing dependency.

    State machine:

    * **closed** — calls flow through; ``failure_threshold`` consecutive
      failures trip the breaker *open*;
    * **open** — :meth:`before_call` refuses immediately with
      :class:`~repro.errors.CircuitOpenError` (carrying a
      ``retry_after`` hint) until ``reset_timeout`` seconds have passed,
      then the breaker moves to *half-open*;
    * **half-open** — up to ``half_open_max_probes`` probe calls are
      admitted; one success closes the breaker, one failure re-opens it
      for another full ``reset_timeout``.

    The caller drives the machine explicitly: :meth:`before_call` at the
    top of the protected operation, then :meth:`record_success` /
    :meth:`record_failure` with the outcome (:meth:`call` packages the
    three for plain synchronous callables).  Time comes from an injected
    :class:`~repro.obs.clock.Clock`, so tests crank a
    :class:`~repro.obs.clock.FakeClock` instead of sleeping; the
    ``on_transition`` callback (invoked outside the internal lock) lets
    the service mirror transitions into metrics.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str = "breaker",
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_max_probes: int = 1,
        clock: Optional[Clock] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        check_seconds("reset_timeout", reset_timeout, zero_ok=True)
        if half_open_max_probes < 1:
            raise ValueError("half_open_max_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max_probes = half_open_max_probes
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._on_transition = on_transition
        # Guards the state, the counters and the transition log below.
        self._lock = threading.Lock()
        self._state = self.CLOSED
        #: Consecutive failures since the last success.
        self._failures = 0
        self._opened_at = 0.0
        #: Probes admitted in the current half-open window.
        self._probes = 0
        #: Every transition as ``"<from>-><to>"``, oldest first.
        self._transitions: List[str] = []

    # -- state machine -------------------------------------------------------
    def _transition(self, to: str) -> Tuple[str, str]:
        """Move to ``to``; the caller holds ``_lock``."""
        previous, self._state = self._state, to
        self._transitions.append(f"{previous}->{to}")
        return previous, to

    def _notify(self, fired: Optional[Tuple[str, str]]) -> None:
        """Run the transition callback outside the lock (deadlock-free)."""
        if fired is not None and self._on_transition is not None:
            self._on_transition(*fired)

    def before_call(self, what: str = "call") -> None:
        """Gate one protected call; raises :class:`CircuitOpenError` if shut.

        While open, refuses until ``reset_timeout`` has elapsed, then
        flips to half-open and admits up to ``half_open_max_probes``
        probes; surplus half-open calls are refused so a thundering herd
        cannot pile onto a barely-recovering dependency.
        """
        fired: Optional[Tuple[str, str]] = None
        try:
            with self._lock:
                if self._state == self.OPEN:
                    remaining = (self.reset_timeout
                                 - (self._clock.now() - self._opened_at))
                    if remaining > 0:
                        raise CircuitOpenError(
                            f"circuit {self.name!r} is open; refusing "
                            f"{what} for another {remaining:.3f}s",
                            retry_after=remaining,
                        )
                    fired = self._transition(self.HALF_OPEN)
                    self._probes = 0
                if self._state == self.HALF_OPEN:
                    if self._probes >= self.half_open_max_probes:
                        raise CircuitOpenError(
                            f"circuit {self.name!r} is half-open and its "
                            f"probe quota is taken; refusing {what}",
                            retry_after=self.reset_timeout,
                        )
                    self._probes += 1
        finally:
            self._notify(fired)

    def record_success(self) -> None:
        """The protected call worked: half-open closes, failures reset."""
        fired: Optional[Tuple[str, str]] = None
        with self._lock:
            self._failures = 0
            if self._state == self.HALF_OPEN:
                fired = self._transition(self.CLOSED)
                self._probes = 0
        self._notify(fired)

    def record_neutral(self) -> None:
        """Neither a success nor a failure of the *dependency*.

        Client errors and expired budgets say nothing about the health
        of the protected path, but an admitted half-open probe must
        still be returned — otherwise a stream of client errors could
        wedge the breaker half-open with its probe quota taken forever.
        """
        with self._lock:
            if self._state == self.HALF_OPEN and self._probes > 0:
                self._probes -= 1

    def record_failure(self) -> None:
        """The protected call failed: count it, trip open at the threshold."""
        fired: Optional[Tuple[str, str]] = None
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._opened_at = self._clock.now()
                fired = self._transition(self.OPEN)
                self._failures = 0
                self._probes = 0
        self._notify(fired)

    def call(self, fn: Callable[..., T], *args: Any,
             what: Optional[str] = None,
             failure_on: Tuple[Type[BaseException], ...] = (Exception,),
             **kwargs: Any) -> T:
        """Run ``fn`` through the breaker (gate, record, propagate)."""
        label = what or getattr(fn, "__qualname__", repr(fn))
        self.before_call(label)
        try:
            result = fn(*args, **kwargs)
        except failure_on:
            self.record_failure()
            raise
        self.record_success()
        return result

    # -- introspection -------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            if (self._state == self.OPEN
                    and self._clock.now() - self._opened_at
                    >= self.reset_timeout):
                # Probe window reached: report half-open without waiting
                # for the next before_call to make the transition.
                return self.HALF_OPEN
            return self._state

    def retry_after(self) -> float:
        """Seconds until the next probe is admitted (0 unless open)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(
                0.0,
                self.reset_timeout - (self._clock.now() - self._opened_at),
            )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe health payload for status endpoints and tests."""
        with self._lock:
            if self._state != self.OPEN:
                retry_after = 0.0
            else:
                retry_after = max(
                    0.0,
                    self.reset_timeout
                    - (self._clock.now() - self._opened_at),
                )
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "retry_after": retry_after,
                "opens": sum(
                    1 for t in self._transitions if t.endswith("->" + self.OPEN)
                ),
                "transitions": list(self._transitions),
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


def retry_call(
    fn: Callable[..., T],
    *args,
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
    deadline: Optional[Deadline] = None,
    label: Optional[str] = None,
    **kwargs,
) -> T:
    """Call ``fn(*args, **kwargs)`` under a retry policy.

    Raises :class:`RetryExhaustedError` (chaining the last underlying
    exception) when every attempt failed, or
    :class:`~repro.errors.DeadlineExceededError` if the deadline expires
    between attempts.  Non-retryable exceptions propagate unchanged.
    """
    policy = policy or RetryPolicy()
    what = label or getattr(fn, "__qualname__", repr(fn))
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None:
            deadline.check(what)
        try:
            return fn(*args, **kwargs)
        except policy.retry_on as exc:
            last = exc
            if attempt == policy.max_attempts:
                break
            delay = policy.delay(attempt)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None:
                    delay = min(delay, remaining)
            if delay > 0:
                sleep(delay)
    raise RetryExhaustedError(
        f"{what} failed after {policy.max_attempts} attempts: {last!r}"
    ) from last


async def retry_call_async(
    fn: Callable[..., Awaitable[T]],
    *args,
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    deadline: Optional[Deadline] = None,
    label: Optional[str] = None,
    **kwargs,
) -> T:
    """Asyncio counterpart of :func:`retry_call`.

    Awaits ``fn(*args, **kwargs)`` under the policy, backing off with
    ``await sleep(delay)`` so the event loop keeps serving other work
    between attempts.  The query service uses this around its executor
    dispatch.  Cancellation is never swallowed: a ``CancelledError``
    propagates immediately regardless of the policy.
    """
    policy = policy or RetryPolicy()
    what = label or getattr(fn, "__qualname__", repr(fn))
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None:
            deadline.check(what)
        try:
            return await fn(*args, **kwargs)
        except asyncio.CancelledError:
            raise
        except policy.retry_on as exc:
            last = exc
            if attempt == policy.max_attempts:
                break
            delay = policy.delay(attempt)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None:
                    delay = min(delay, remaining)
            if delay > 0:
                await sleep(delay)
    raise RetryExhaustedError(
        f"{what} failed after {policy.max_attempts} attempts: {last!r}"
    ) from last
