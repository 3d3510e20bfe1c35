"""Injected clocks: the only sanctioned time source in algorithm paths.

The evaluation paths (``repro/core/``, ``repro/kickstarter/``,
``repro/temporal/``, the live tip) read no wall clock, because replayed
runs must be pure functions of their inputs; ``tests/test_invariants.py``
runs them with ``time.time`` made to raise.  Telemetry still needs
durations, so observability time flows through a :class:`Clock`
*protocol* instead of module-level ``time`` calls: production wires in
:class:`MonotonicClock` (a thin ``perf_counter`` wrapper — monotonic
durations never feed back into computed values), and tests wire in
:class:`FakeClock` to make span timings exact and assertions
deterministic.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "FakeClock", "MonotonicClock"]


@runtime_checkable
class Clock(Protocol):
    """Minimal time source: monotonic seconds since an arbitrary epoch."""

    def now(self) -> float:
        """Current monotonic time in (fractional) seconds."""
        ...  # pragma: no cover - protocol


class MonotonicClock:
    """The production clock: ``time.perf_counter`` behind the protocol.

    ``perf_counter`` is monotonic and high-resolution; its epoch is
    arbitrary, which is exactly right for spans and phase durations —
    nothing downstream may interpret the absolute value.
    """

    def now(self) -> float:
        return time.perf_counter()

    def __repr__(self) -> str:
        return "MonotonicClock()"


class FakeClock:
    """A hand-cranked clock for tests: time moves only via :meth:`advance`.

    Optionally ``auto_tick`` advances the clock by a fixed step on every
    read, so consecutive spans get distinct, predictable timestamps
    without explicit cranking.
    """

    def __init__(self, start: float = 0.0, auto_tick: float = 0.0) -> None:
        self._time = float(start)
        self._auto_tick = float(auto_tick)

    def now(self) -> float:
        value = self._time
        self._time += self._auto_tick
        return value

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            from repro.errors import ObservabilityError

            raise ObservabilityError("FakeClock cannot move backwards")
        self._time += float(seconds)
        return self._time

    def __repr__(self) -> str:
        return f"FakeClock(t={self._time})"
