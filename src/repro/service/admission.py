"""Admission control: bounded concurrency and queueing per request class.

Before this layer the server accepted every connection and queued every
request without limit — a burst did not fail, it just grew the event
loop's backlog until latency (or memory) blew up.  Admission control
makes the capacity explicit:

* each request class (``query`` / ``ingest`` / ``live``) owns an
  :class:`asyncio.Semaphore` of execution slots and a **bounded waiting
  room**; a request that finds the room full is *shed* immediately with
  :class:`~repro.errors.ServiceOverloadedError` and a ``retry_after_ms``
  hint instead of being buffered;
* a waiting request carries its :class:`~repro.resilience.Deadline`
  into the queue — it is shed when the class's ``queue_timeout`` or its
  own remaining budget runs out, whichever is sooner, so queue time is
  always charged against the request's end-to-end budget;
* at drain time the controller sheds every not-yet-admitted request
  with reason ``"draining"`` so the server can finish in-flight work
  and stop.

Counters (admitted, shed-by-reason, high-water queue depth) are kept
under a plain lock so the metrics scrape thread can read a consistent
snapshot while the event loop mutates; the scrape-time collector lives
in the server, which owns the observability registration.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import obs
from repro.errors import DeadlineExceededError, ServiceOverloadedError
from repro.resilience import Deadline, check_seconds

__all__ = ["AdmissionController", "AdmissionPolicy", "SHED_REASONS"]

#: Every reason an admission can be refused with (label set of the
#: ``repro_admission_shed_total`` counter).
SHED_REASONS = ("queue_full", "timeout", "draining")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds for one request class.

    ``max_concurrent`` execution slots, at most ``max_queue`` requests
    waiting for a slot, and at most ``queue_timeout`` seconds of
    waiting before the request is shed.
    """

    max_concurrent: int = 8
    max_queue: int = 64
    queue_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        check_seconds("queue_timeout", self.queue_timeout, zero_ok=True)

    def retry_after_ms(self) -> int:
        """The hint shipped with a shed response: half the queue budget.

        By then roughly half the waiting room has drained (waiters are
        admitted or shed within ``queue_timeout``), so an immediate
        retry storm is spread out without a caller waiting longer than
        the service's own queue discipline would have.
        """
        return max(1, int(self.queue_timeout * 1000) // 2)


class _Gate:
    """One request class: slots, waiting room, and shed accounting."""

    def __init__(self, kind: str, policy: AdmissionPolicy) -> None:
        self.kind = kind
        self.policy = policy
        self._semaphore = asyncio.Semaphore(policy.max_concurrent)
        # Guards the counts below: the event loop mutates them, the
        # metrics scrape thread reads them.
        self._lock = threading.Lock()
        self.waiting = 0
        self.active = 0
        self.admitted = 0
        self.max_depth = 0
        self.shed: Dict[str, int] = dict.fromkeys(SHED_REASONS, 0)

    def _shed(self, reason: str, what: str) -> ServiceOverloadedError:
        with self._lock:
            self.shed[reason] += 1
        obs.counter_inc("repro_admission_shed_total",
                        kind=self.kind, reason=reason)
        hint = 0 if reason == "draining" else self.policy.retry_after_ms()
        return ServiceOverloadedError(
            f"{self.kind} admission shed {what} ({reason}); "
            f"retry after {hint}ms",
            retry_after_ms=hint,
        )

    async def acquire(self, deadline: Deadline, *, draining: bool,
                      what: str = "request") -> None:
        """Take one execution slot or raise the appropriate refusal.

        Raises :class:`ServiceOverloadedError` when the waiting room is
        full, the class queue timeout expires, or the service is
        draining; raises :class:`DeadlineExceededError` when the
        request's own budget dies while it queues.
        """
        if draining:
            raise self._shed("draining", what)
        # Count the gate's own books, not ``semaphore.locked()``: a
        # request joins ``waiting`` before it takes its slot, and a
        # queued request's acquire runs later (on Python <= 3.11
        # ``wait_for`` defers it to a task), so every arrival of one
        # loop tick would see a free semaphore.  With ``max_queue=0``
        # this admits up to ``max_concurrent`` requests.
        capacity = self.policy.max_concurrent + self.policy.max_queue
        with self._lock:
            queue_full = self.waiting + self.active >= capacity
            if not queue_full:
                self.waiting += 1
                self.max_depth = max(self.max_depth, self.waiting)
                # Nobody queued ahead and a slot free by the books: the
                # semaphore has a permit and no live waiter, so its
                # acquire returns at once — no task, no loop turn.  An
                # arrival behind any waiter, even one woken but not yet
                # resumed, queues under its budget instead.
                free = (self.waiting == 1
                        and self.active < self.policy.max_concurrent)
        if queue_full:
            raise self._shed("queue_full", what)
        try:
            try:
                if free:
                    await self._semaphore.acquire()
                else:
                    budget: Optional[float] = self.policy.queue_timeout
                    remaining = deadline.remaining()
                    if remaining is not None:
                        budget = min(budget, remaining)
                    await asyncio.wait_for(self._semaphore.acquire(),
                                           timeout=budget)
            except asyncio.TimeoutError:
                if deadline.expired():
                    raise DeadlineExceededError(
                        f"deadline expired while {what} queued for a "
                        f"{self.kind} slot"
                    ) from None
                raise self._shed("timeout", what) from None
        finally:
            with self._lock:
                self.waiting -= 1
        with self._lock:
            self.active += 1
            self.admitted += 1

    def release(self) -> None:
        with self._lock:
            self.active -= 1
        self._semaphore.release()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "max_concurrent": self.policy.max_concurrent,
                "max_queue": self.policy.max_queue,
                "queue_timeout": self.policy.queue_timeout,
                "waiting": self.waiting,
                "active": self.active,
                "admitted": self.admitted,
                "max_depth": self.max_depth,
                "shed": dict(self.shed),
            }


class AdmissionController:
    """Separate bounded lanes for queries, ingests, and live updates.

    Use as an async context manager factory::

        async with admission.slot("query", deadline, what=label):
            ...  # holds one query execution slot

    The ``live`` lane serves single-edge ``update`` requests: one
    execution slot (updates are serialised through the state's writer
    lock anyway, so extra slots would only hide queueing in lock
    contention) but a deep waiting room with a short timeout — a
    per-update stream is high-rate and each item is sub-millisecond,
    so depth is cheap and staleness is not.

    The controller itself never blocks the event loop: a free slot is
    taken at once (no task, no loop turn) when nobody is queued for it,
    and only a real queue wait is an ``asyncio.Semaphore`` acquisition
    under ``asyncio.wait_for``.  Waiters are admitted in arrival order.
    """

    def __init__(self, *, query: Optional[AdmissionPolicy] = None,
                 ingest: Optional[AdmissionPolicy] = None,
                 live: Optional[AdmissionPolicy] = None) -> None:
        self._gates: Dict[str, _Gate] = {
            "query": _Gate("query", query or AdmissionPolicy()),
            "ingest": _Gate("ingest", ingest or AdmissionPolicy(
                max_concurrent=1, max_queue=32, queue_timeout=10.0,
            )),
            "live": _Gate("live", live or AdmissionPolicy(
                max_concurrent=1, max_queue=256, queue_timeout=2.0,
            )),
        }
        self._draining = False  # event-loop-confined; read-only elsewhere

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """From now on every not-yet-admitted request is shed."""
        self._draining = True

    def gate(self, kind: str) -> _Gate:
        try:
            return self._gates[kind]
        except KeyError:
            raise ServiceOverloadedError(
                f"unknown admission class {kind!r}"
            ) from None

    def slot(self, kind: str, deadline: Deadline,
             what: str = "request") -> "_Slot":
        """An async context manager holding one ``kind`` execution slot."""
        return _Slot(self, kind, deadline, what)

    def total_shed(self) -> int:
        return sum(
            sum(gate.shed.values()) for gate in self._gates.values()
        )

    def snapshot(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            kind: gate.snapshot() for kind, gate in self._gates.items()
        }
        payload["draining"] = self._draining
        # Cross-lane aggregate (the benchmark worker reads one shed count
        # and one queue high-water per replica, not one per lane).
        gates = [payload[kind] for kind in self._gates]
        shed_by_reason: Dict[str, int] = {}
        for gate in gates:
            for reason, count in gate["shed"].items():
                shed_by_reason[reason] = shed_by_reason.get(reason, 0) + count
        payload["totals"] = {
            "waiting": sum(gate["waiting"] for gate in gates),
            "active": sum(gate["active"] for gate in gates),
            "admitted": sum(gate["admitted"] for gate in gates),
            "max_depth": max(gate["max_depth"] for gate in gates),
            "shed": shed_by_reason,
        }
        return payload


class _Slot:
    """The ticket: acquire on ``__aenter__``, release on ``__aexit__``."""

    __slots__ = ("_controller", "_kind", "_deadline", "_what", "_held")

    def __init__(self, controller: AdmissionController, kind: str,
                 deadline: Deadline, what: str) -> None:
        self._controller = controller
        self._kind = kind
        self._deadline = deadline
        self._what = what
        self._held = False

    async def __aenter__(self) -> "_Slot":
        gate = self._controller.gate(self._kind)
        await gate.acquire(self._deadline,
                           draining=self._controller.draining,
                           what=self._what)
        self._held = True
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._held:
            self._held = False
            self._controller.gate(self._kind).release()
