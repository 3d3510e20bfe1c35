"""Deterministic fault injection.

Crash-recovery and retry code is only trustworthy when
its failure modes can be produced on demand.  This module lets tests
(and brave users) declare a :class:`FaultPlan` — *fail the Nth matching
I/O operation*, *skip the Nth fsync*, *raise inside the Nth service
operation*, *corrupt bytes of a named file* — and activate it for a scope.
Everything is counter-based and seeded, so a failing run replays
exactly.

Instrumentation points live in the production code paths:

* :mod:`repro.evolving.store` calls :func:`io_check` before every
  read / write / fsync / replace, labelled ``"<op>:<filename>"``
  (e.g. ``"write:batch_00003.npz"``, ``"fsync:manifest.json"``);
* the query service and the fleet transport call
  :func:`service_check` at the start of every service operation,
  labelled ``"query:<key>"`` / ``"temporal:<key>"`` /
  ``"ingest:<version>"`` / ``"update:<version>"`` /
  ``"route:<replica>:<op>"``.  A failed read answers its error; a
  failed ingest is retried under the server's retry policy.

With no plan active the hooks are a single ``None`` check — the
production cost of the harness is negligible.

Example::

    plan = FaultPlan(seed=7)
    plan.fail_io(index=2, times=99)        # every attempt at the 3rd I/O op
    with plan.active():
        store.append(batch)                # "crashes" mid-append
    report = SnapshotStore.recover_store(store.directory)
"""

from __future__ import annotations

import fnmatch
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "burst_offsets",
    "corrupt_bytes",
    "has_active_plan",
    "io_check",
    "service_check",
]


class InjectedFault(OSError):
    """The error raised by an injected fault.

    Subclasses :class:`OSError` so retry policies and error handling
    treat injected faults exactly like real I/O failures — the point of
    the exercise.
    """


@dataclass
class FaultRule:
    """One trigger: affect matching operations ``index .. index+times-1``.

    ``kind`` is ``"io"`` or ``"service"``; ``match`` is an
    :mod:`fnmatch` pattern over the operation label; ``index`` is the
    0-based ordinal *among operations this rule matches*; ``action`` is
    ``"fail"`` (raise :class:`InjectedFault`), ``"skip"`` (suppress the
    operation — meaningful for fsync-style ops only) or ``"delay"``
    (stall the operation for ``seconds`` before letting it proceed —
    the latency-injection primitive of the chaos harness).
    """

    kind: str
    index: int
    match: str = "*"
    times: int = 1
    action: str = "fail"
    seconds: float = 0.0
    seen: int = 0
    fired: int = 0

    def applies(self, label: str) -> Optional[str]:
        """Advance this rule past ``label``; return the action if it fires."""
        if not fnmatch.fnmatchcase(label, self.match):
            return None
        ordinal = self.seen
        self.seen += 1
        if self.index <= ordinal < self.index + self.times:
            self.fired += 1
            return self.action
        return None


class FaultPlan:
    """A seeded, replayable schedule of faults.

    Rules are added with :meth:`fail_io` / :meth:`skip_io` /
    :meth:`fail_service`, then the plan is activated with :meth:`active`.
    Counters advance per rule as matching operations occur;
    :meth:`reset` rewinds them so the same plan replays identically.
    The plan records every checked operation label in :attr:`events`,
    which doubles as an I/O trace for tests that need to enumerate
    crash points.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = []
        self.events: List[str] = []
        self._lock = threading.Lock()

    # -- declaring faults ---------------------------------------------------
    def fail_io(self, index: int = 0, match: str = "*",
                times: int = 1) -> "FaultPlan":
        """Raise on the ``index``-th (0-based) matching I/O operation."""
        self.rules.append(FaultRule("io", index, match, times, "fail"))
        return self

    def skip_io(self, index: int = 0, match: str = "*",
                times: int = 1) -> "FaultPlan":
        """Silently skip the matching I/O operation (e.g. a lost fsync)."""
        self.rules.append(FaultRule("io", index, match, times, "skip"))
        return self

    def fail_service(self, index: int = 0, match: str = "*",
                     times: int = 1) -> "FaultPlan":
        """Raise inside the ``index``-th matching service operation.

        Labels are ``"query:<key>"`` / ``"ingest:<version>"`` / … — the
        query service's operations (see :func:`service_check`).
        """
        self.rules.append(FaultRule("service", index, match, times, "fail"))
        return self

    def delay_service(self, seconds: float, index: int = 0, match: str = "*",
                      times: int = 1) -> "FaultPlan":
        """Stall the ``index``-th matching service operation.

        The latency half of the chaos harness: combined with a burst of
        concurrent clients it fills the admission waiting room with slow
        requests so shedding and queue-timeout behaviour can be asserted
        deterministically (the stall count is exact, not probabilistic).
        """
        self.rules.append(
            FaultRule("service", index, match, times, "delay", seconds)
        )
        return self

    def corrupt(self, path: Union[str, Path],
                count: int = 1) -> List[Tuple[int, int, int]]:
        """Corrupt ``count`` bytes of ``path`` now, seeded by the plan."""
        return corrupt_bytes(path, seed=self.seed, count=count)

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> "FaultPlan":
        """Rewind all counters so the plan replays from the start."""
        with self._lock:
            self.events.clear()
            for rule in self.rules:
                rule.seen = 0
                rule.fired = 0
        return self

    def fired_rules(self) -> List[FaultRule]:
        """The rules that have triggered at least once."""
        return [rule for rule in self.rules if rule.fired]

    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Activate this plan for the duration of the ``with`` block."""
        global _active
        with _activation_lock:
            previous, _active = _active, self
        try:
            yield self
        finally:
            with _activation_lock:
                _active = previous

    # -- hook implementation ------------------------------------------------
    def _check(self, kind: str, label: str) -> bool:
        delay = 0.0
        with self._lock:
            self.events.append(label)
            action = None
            for rule in self.rules:
                if rule.kind != kind:
                    continue
                fired = rule.applies(label)
                if fired is None:
                    continue
                if fired == "delay":
                    delay += rule.seconds
                elif action is None:
                    action = fired
        if delay > 0.0:
            # Sleep outside the lock: an injected stall must slow only
            # the operation it hit, never serialise unrelated hooks.
            time.sleep(delay)
        if action == "fail":
            raise InjectedFault(f"injected fault at {label}")
        return action != "skip"

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
                f"events={len(self.events)})")


_activation_lock = threading.Lock()
_active: Optional[FaultPlan] = None


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Module-level alias for :meth:`FaultPlan.active`."""
    with plan.active():
        yield plan


def has_active_plan() -> bool:
    """Whether a fault plan is currently activated.

    Event-loop code uses this to decide whether a hook worth a thread
    dispatch is needed at all: an injected ``delay`` sleeps inside the
    hook, so async callers (the fleet router's transport) run
    :func:`service_check` in an executor — but only when a plan is
    active, keeping the production path a single function call.
    """
    return _active is not None


def io_check(op: str, name: str) -> bool:
    """Fault hook before an I/O operation ``op`` on file ``name``.

    Returns ``False`` if the operation should be silently skipped,
    raises :class:`InjectedFault` if it should fail, ``True`` otherwise.
    Production code calls this before every store read/write/fsync/
    replace; with no active plan it is a single ``None`` check.
    """
    plan = _active
    if plan is None:
        return True
    return plan._check("io", f"{op}:{name}")


def service_check(op: str, label: object) -> None:
    """Fault hook at the start of a service operation.

    The query server calls this once per read, update and ingest
    attempt, on the executor thread; the fleet transport once per
    forwarded request.
    """
    plan = _active
    if plan is None:
        return
    plan._check("service", f"{op}:{label}")


def burst_offsets(count: int, *, spread: float = 0.05,
                  seed: int = 0) -> List[float]:
    """Deterministic start offsets (seconds) for a burst of clients.

    A chaos storm wants *near*-simultaneous arrivals, not a perfectly
    aligned stampede — lock convoys hide behind perfect alignment.  The
    offsets are drawn uniformly from ``[0, spread)`` with a seeded RNG
    and returned sorted, so the same seed replays the same arrival
    pattern exactly.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, spread) for _ in range(count))


def corrupt_bytes(path: Union[str, Path], *, seed: int = 0,
                  count: int = 1) -> List[Tuple[int, int, int]]:
    """Deterministically corrupt ``count`` bytes of ``path`` in place.

    Offsets and replacement bytes derive from ``seed``; each mutation
    is guaranteed to change the byte.  Returns the list of
    ``(offset, old_byte, new_byte)`` mutations for test assertions.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    rng = random.Random(seed)
    mutations: List[Tuple[int, int, int]] = []
    for _ in range(count):
        offset = rng.randrange(len(data))
        old = data[offset]
        new = old ^ rng.randrange(1, 256)
        data[offset] = new
        mutations.append((offset, old, new))
    path.write_bytes(bytes(data))
    return mutations
