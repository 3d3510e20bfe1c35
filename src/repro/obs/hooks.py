"""Profiling hooks: a callback registry fired at phase boundaries.

Modeled on the :mod:`repro.faults` hook pattern: production code calls
a module-level function at well-known points, and with nothing
registered that call is a single emptiness check.  Where
:func:`repro.faults.service_check` *injects* behaviour, a profiler
callback only *observes* it — the engine, the
planner, the store and the server all fire :class:`PhaseEvent` records
at their phase boundaries, and registered profilers (a flame-graph
builder, a slow-phase logger, a test assertion) consume them.

Callbacks must be cheap and must not raise; a raising profiler is
unregistered on the spot rather than allowed to take down the
instrumented operation (the failure is remembered in
:func:`dropped_profilers` so tests can assert on it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = [
    "PhaseEvent",
    "ProfilerFn",
    "dropped_profilers",
    "fire",
    "has_profilers",
    "register_profiler",
    "reset_profilers",
]


@dataclass(frozen=True)
class PhaseEvent:
    """One phase boundary: which layer, which phase, how long.

    ``seconds`` is ``None`` for point events (an outcome recorded, a
    cache purge) and the measured duration for span-like phases.
    """

    layer: str
    phase: str
    label: str = ""
    seconds: Optional[float] = None

    def key(self) -> Tuple[str, str]:
        return (self.layer, self.phase)


ProfilerFn = Callable[[PhaseEvent], None]

_registry_lock = threading.Lock()
#: Immutable snapshot swapped under the lock; readers never lock.
_profilers: Tuple[ProfilerFn, ...] = ()
#: Failure log of unregistered profilers; mutated under _registry_lock.
_dropped: List[str] = []


def register_profiler(fn: ProfilerFn) -> Callable[[], None]:
    """Register a phase callback; returns its unsubscribe function."""
    global _profilers
    with _registry_lock:
        _profilers = (*_profilers, fn)

    def unsubscribe() -> None:
        _remove(fn)

    return unsubscribe


def _remove(fn: ProfilerFn) -> None:
    global _profilers
    with _registry_lock:
        _profilers = tuple(p for p in _profilers if p is not fn)


def has_profilers() -> bool:
    return bool(_profilers)


def fire(event: PhaseEvent) -> None:
    """Deliver ``event`` to every registered profiler."""
    for profiler in _profilers:
        try:
            profiler(event)
        except Exception as exc:
            # A broken observer must never break the observed operation:
            # drop it, remember why, and keep serving.
            _remove(profiler)
            with _registry_lock:
                _dropped.append(f"{profiler!r}: {exc!r}")


def dropped_profilers() -> List[str]:
    """Descriptions of profilers unregistered for raising."""
    with _registry_lock:
        return list(_dropped)


def reset_profilers() -> None:
    """Drop every registered profiler and the failure log (for tests)."""
    global _profilers
    with _registry_lock:
        _profilers = ()
        _dropped.clear()
