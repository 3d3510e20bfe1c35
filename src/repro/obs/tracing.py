"""Structured tracing: nestable spans, one trace id per query.

A *span* is one timed operation (a service query, a planner evaluation,
one schedule edge, one kernel call); spans nest through a
:mod:`contextvars` context variable, so the active span follows the
flow of control across ``await`` points and — when the caller copies
its context, as the service does around ``run_in_executor`` — across
thread hops into worker pools.

Sampling is decided once, at the trace root: either every span of a
query is recorded or none is (``sample_rate`` of 1 keeps everything,
0 keeps nothing; in between, a seeded RNG decides per trace so runs
replay).  Unsampled and disabled paths cost one context-variable read
and no allocation.

Finished spans go to an in-memory ring buffer (for tests, ``status``
payloads and ``repro obs dump``) and optionally to a JSON-lines sink —
a path or any ``write(str)``-able object — one span per line, ready for
``repro obs tail``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import random
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, MonotonicClock

__all__ = ["NULL_SPAN", "NullSpan", "Span", "Tracer"]


@dataclass
class Span:
    """One timed, attributed operation within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes; late wins on key collisions."""
        self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class NullSpan:
    """The no-op span: every operation accepted, nothing recorded."""

    trace_id: Optional[str] = None

    def annotate(self, **attributes: Any) -> "NullSpan":
        return self

    def __repr__(self) -> str:
        return "NullSpan()"


#: Shared no-op instance handed out by disabled/unsampled paths.
NULL_SPAN = NullSpan()

#: Context marker meaning "this trace was not sampled": descendants
#: skip straight to the null span without re-rolling the dice.
_UNSAMPLED = "unsampled"

SpanLike = Union[Span, NullSpan]
_ContextValue = Optional[Union[Span, str]]

#: The active span of the current logical flow (task/thread/context).
_current_span: "contextvars.ContextVar[_ContextValue]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Tracer:
    """Creates, nests and exports spans.

    ``sample_rate`` ∈ [0, 1] is the per-trace keep probability; the
    decision replays because it comes from a seeded RNG.  ``sink``
    receives finished sampled spans as JSON lines — a path (opened
    lazily, line-buffered appends) or a file-like object.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        sample_rate: float = 1.0,
        sink: Optional[Union[str, Path, IO[str]]] = None,
        seed: int = 0,
        max_recent: int = 512,
        on_finish: Optional[Callable[[Span], None]] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ObservabilityError(
                f"sample_rate must be within [0, 1], got {sample_rate}"
            )
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.sample_rate = float(sample_rate)
        # Guards the sampling RNG, the recent ring, the sink file and
        # the three counts.
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._ids = itertools.count(1)
        self._recent: Deque[Span] = deque(maxlen=max_recent)
        self._sink_path: Optional[Path] = None
        self._sink_file: Optional[IO[str]] = None
        self._owns_sink = False
        self._has_sink = sink is not None
        if isinstance(sink, (str, Path)):
            self._sink_path = Path(sink)
            self._owns_sink = True
        elif sink is not None:
            self._sink_file = sink
        self.started = 0
        self.exported = 0
        #: Span lines the sink refused (an ``OSError`` opening, writing
        #: or flushing it): dropped, never raised into the traced code.
        self.dropped = 0
        self._on_finish = on_finish

    # -- span lifecycle -----------------------------------------------------
    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[SpanLike]:
        """Open a child of the active span (or a new trace at the root).

        The span closes when the ``with`` block exits; an escaping
        exception marks it ``status="error"`` (and is re-raised).
        """
        parent = _current_span.get()
        if parent == _UNSAMPLED:
            yield NULL_SPAN
            return
        if parent is None and not self._sample():
            token = _current_span.set(_UNSAMPLED)
            try:
                yield NULL_SPAN
            finally:
                _current_span.reset(token)
            return
        span = self._start(name, parent if isinstance(parent, Span) else None,
                           attributes)
        token = _current_span.set(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            _current_span.reset(token)
            self._finish(span)

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.sample_rate

    def _start(self, name: str, parent: Optional[Span],
               attributes: Dict[str, Any]) -> Span:
        if parent is None:
            with self._lock:
                trace_id = f"{self._rng.getrandbits(64):016x}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"{next(self._ids):08x}",
            parent_id=parent_id,
            start=self.clock.now(),
            attributes=dict(attributes),
        )
        with self._lock:
            self.started += 1
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        line: Optional[str] = None
        if self._has_sink:
            line = json.dumps(span.to_dict(), sort_keys=True,
                              default=str)
        with self._lock:
            self._recent.append(span)
            self.exported += 1
            if line is not None:
                try:
                    sink = self._open_sink_locked()
                    if sink is not None:
                        sink.write(line + "\n")
                        sink.flush()
                except OSError:
                    # Telemetry never fails the request it describes.
                    self.dropped += 1
        if self._on_finish is not None:
            self._on_finish(span)

    def _open_sink_locked(self) -> Optional[IO[str]]:
        if self._sink_file is None and self._sink_path is not None:
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink_file = self._sink_path.open("a", encoding="utf-8")
        return self._sink_file

    # -- introspection ------------------------------------------------------
    def current(self) -> SpanLike:
        """The active span of this context (:data:`NULL_SPAN` if none)."""
        active = _current_span.get()
        return active if isinstance(active, Span) else NULL_SPAN

    def current_trace_id(self) -> Optional[str]:
        active = _current_span.get()
        return active.trace_id if isinstance(active, Span) else None

    def recent(self, limit: Optional[int] = None) -> List[Span]:
        """The most recently finished spans, oldest first."""
        with self._lock:
            spans = list(self._recent)
        return spans if limit is None else spans[-limit:]

    def close(self) -> None:
        """Flush and release the sink (only if this tracer opened it)."""
        with self._lock:
            sink, self._sink_file = self._sink_file, None
            owns = self._owns_sink
        if sink is not None and owns:
            try:
                sink.close()
            except OSError:
                pass  # a failed close loses nothing: every line was flushed

    def __repr__(self) -> str:
        with self._lock:
            started, exported = self.started, self.exported
        return (f"Tracer(sample_rate={self.sample_rate}, "
                f"started={started}, exported={exported})")
