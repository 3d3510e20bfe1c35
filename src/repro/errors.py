"""Exception hierarchy for the CommonGraph reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Malformed graph input (bad vertex ids, ragged arrays, ...)."""


class EdgeSetError(GraphError):
    """Invalid edge-set construction or operation."""


class DeltaError(ReproError):
    """Invalid delta batch (e.g. adding an edge that already exists)."""


class SnapshotError(ReproError):
    """Snapshot index out of range or inconsistent snapshot state."""


class IntegrityError(SnapshotError):
    """Persisted data failed checksum or consistency verification.

    Subclasses :class:`SnapshotError` so existing callers that guard
    store access with ``except SnapshotError`` also catch corruption.
    """


class ResilienceError(ReproError):
    """Failure of a resilience primitive (retries, deadlines, recovery)."""


class RetryExhaustedError(ResilienceError):
    """An operation kept failing after every allowed retry attempt.

    The final underlying exception is chained as ``__cause__``.
    """


class DeadlineExceededError(ResilienceError):
    """A deadline expired before the operation completed."""


class CircuitOpenError(ResilienceError):
    """A circuit breaker refused the call without attempting it.

    Raised while the breaker is *open* — the protected dependency kept
    failing, so calls short-circuit instead of burning retries against
    it.  ``retry_after`` (seconds, possibly 0) hints when the breaker
    will next allow a probe.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceError(ReproError):
    """Failure inside the live query service (bad request, bad state)."""


class ProtocolError(ServiceError):
    """Malformed service request or response (framing, fields, types)."""


class ServiceUnavailableError(ServiceError):
    """The service could not be reached at all.

    Raised by the client when the TCP connection dropped and every
    reconnect attempt (capped, jittered backoff) was exhausted, and by
    the fleet router when no replica in rotation could take a request.
    Distinct from :class:`ServiceOverloadedError`: an overloaded service
    answered and asked for backoff; an unavailable one never answered.
    """


class FleetError(ServiceError):
    """Failure inside the multi-replica fleet layer.

    Raised for fleet-level conditions — an empty hash ring, a
    fan-out with no surviving receipt, an unknown replica name —
    rather than failures of any single replica (those surface as the
    replica's own error and drive ejection/quarantine instead).
    """


class ResyncStalledError(FleetError):
    """A resync could not replay the missing history within its deadline.

    ``progress`` is the partial-progress report — the replica, the donor,
    the tip it reached, and the batches replayed and still missing — so
    the caller can surface how far the resync got and resume it later
    (replayed batches are durable).
    """

    def __init__(self, message: str, *,
                 progress: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.progress: Dict[str, Any] = dict(progress or {})


class ServiceOverloadedError(ServiceError):
    """The service shed the request instead of queueing it unboundedly.

    Carried over the wire as an ``ok: false`` response with
    ``"overloaded": true`` and a ``retry_after_ms`` hint; the client
    helper honours the hint with a capped, jittered backoff.
    """

    def __init__(self, message: str, *, retry_after_ms: int = 0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ObservabilityError(ReproError):
    """Misuse of the observability subsystem (:mod:`repro.obs`).

    Raised for configuration and registration mistakes — re-registering
    a metric under a different type, unknown label names, a negative
    counter increment, an invalid sampling rate.  The instrumentation
    hot path itself never raises: a disabled runtime is a no-op, not an
    error.
    """


class ScheduleError(ReproError):
    """Invalid query-evaluation schedule (not a tree, missing leaves, ...)."""


class AlgorithmError(ReproError):
    """Unknown algorithm name or invalid algorithm configuration."""


class EngineError(ReproError):
    """Engine misuse, e.g. evaluating before initialisation."""
