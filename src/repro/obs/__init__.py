"""repro.obs — tracing and metrics across the stack.

Two pillars behind one facade:

* a **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges
  and fixed-bucket histograms, exported as a JSON snapshot and as
  Prometheus text format (:mod:`repro.obs.export` serves both over
  HTTP for ``repro serve --metrics``);
* **structured tracing** (:mod:`repro.obs.tracing`) — nestable spans
  with one trace id per query, timed by an injected
  :class:`~repro.obs.clock.Clock` so instrumented algorithm code stays
  clean under the determinism lint rule, with a per-trace sampling knob
  and a JSON-lines span exporter.

Observability is **off by default**.  Production code calls the
module-level helpers below unconditionally; with no runtime configured
each call is a single ``None`` check (the null backend), so the
disabled overhead is negligible.  :func:`configure` installs a live
runtime (registry + tracer + clock) process-globally;
:func:`repro.testing.reset_observability` tears it down between tests.

Instrumented layers: the work-sharing engine, the kickstarter kernels,
the memoizing planner, the snapshot store's
append path, and the asyncio service front end — every service query
produces one trace whose spans nest server → planner → schedule edges
→ per-hop kernels.

Example::

    from repro import obs

    runtime = obs.configure(sample_rate=1.0)
    ...  # run queries
    print(runtime.registry.render_prometheus())
    for span in runtime.tracer.recent():
        print(span.name, span.duration)
    obs.disable()
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, Dict, IO, Optional, Type, Union

from repro.errors import ObservabilityError
from repro.obs import instruments as instruments
from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.export import MetricsServer, read_spans, render_trace_trees
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_SPAN, NullSpan, Span, SpanLike, Tracer

__all__ = [
    # runtime lifecycle
    "ObsRuntime",
    "configure",
    "disable",
    "enabled",
    "current",
    "registry",
    "tracer",
    "describe",
    # instrumentation helpers (the hot path)
    "span",
    "phase_span",
    "annotate",
    "timer",
    "counter_inc",
    "gauge_set",
    "observe",
    "register_collector",
    # clocks
    "Clock",
    "MonotonicClock",
    "FakeClock",
    # metrics
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    # tracing
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    # export
    "MetricsServer",
    "read_spans",
    "render_trace_trees",
]


@dataclass
class ObsRuntime:
    """One live observability backend: registry + tracer + clock."""

    registry: MetricsRegistry
    tracer: Tracer
    clock: Clock
    sample_rate: float

    def describe(self) -> Dict[str, Any]:
        """Small health summary for status payloads and tests."""
        return {
            "enabled": True,
            "sample_rate": self.sample_rate,
            "spans_started": self.tracer.started,
            "spans_exported": self.tracer.exported,
            "spans_dropped": self.tracer.dropped,
            "metric_families": len(self.registry.families()),
        }


_configure_lock = threading.Lock()
_runtime: Optional[ObsRuntime] = None


def configure(
    *,
    sample_rate: float = 1.0,
    span_sink: Optional[Union[str, Path, IO[str]]] = None,
    clock: Optional[Clock] = None,
    seed: int = 0,
    max_recent_spans: int = 512,
    prime: bool = True,
) -> ObsRuntime:
    """Install a live observability runtime process-globally.

    Replaces any previous runtime (its span sink is closed).  With
    ``prime=True`` the key metric series are pre-created at zero so the
    first scrape already exposes them.  Returns the new runtime.
    """
    global _runtime
    reg = MetricsRegistry()
    spans_total = instruments.family(reg, "repro_spans_total").labels()
    if not isinstance(spans_total, Counter):  # pragma: no cover - table-typed
        raise ObservabilityError("repro_spans_total must be a counter")

    def count_span(_span: Span) -> None:
        spans_total.inc()

    runtime = ObsRuntime(
        registry=reg,
        tracer=Tracer(
            clock=clock,
            sample_rate=sample_rate,
            sink=span_sink,
            seed=seed,
            max_recent=max_recent_spans,
            on_finish=count_span,
        ),
        clock=clock if clock is not None else MonotonicClock(),
        sample_rate=sample_rate,
    )
    if prime:
        instruments.prime(reg)
    with _configure_lock:
        previous, _runtime = _runtime, runtime
    if previous is not None:
        previous.tracer.close()
    return runtime


def disable() -> None:
    """Tear the runtime down; helpers become no-ops again."""
    global _runtime
    with _configure_lock:
        previous, _runtime = _runtime, None
    if previous is not None:
        previous.tracer.close()


def enabled() -> bool:
    return _runtime is not None


def current() -> Optional[ObsRuntime]:
    """The active runtime, or ``None`` when observability is off."""
    return _runtime


def registry() -> MetricsRegistry:
    """The active registry; raises when observability is disabled."""
    runtime = _runtime
    if runtime is None:
        raise ObservabilityError(
            "observability is not configured; call repro.obs.configure()"
        )
    return runtime.registry


def tracer() -> Tracer:
    """The active tracer; raises when observability is disabled."""
    runtime = _runtime
    if runtime is None:
        raise ObservabilityError(
            "observability is not configured; call repro.obs.configure()"
        )
    return runtime.tracer


def describe() -> Dict[str, Any]:
    """Health summary of the runtime (``{"enabled": False}`` when off)."""
    runtime = _runtime
    if runtime is None:
        return {"enabled": False}
    return runtime.describe()


# -- instrumentation helpers (hot path) --------------------------------------

class _NullContext:
    """Shared no-op context manager for disabled instrumentation."""

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class _PhaseSpan:
    """Context manager uniting a span and a phase histogram.

    Allocated only when a runtime is active; the disabled path returns
    the shared :data:`_NULL_CONTEXT` instead.
    """

    __slots__ = ("_runtime", "_layer", "_phase", "_label", "_attributes",
                 "_start", "_span_context", "span")

    def __init__(self, runtime: ObsRuntime, layer: str, phase: str,
                 label: str, attributes: Dict[str, Any]) -> None:
        self._runtime = runtime
        self._layer = layer
        self._phase = phase
        self._label = label
        self._attributes = attributes
        self._start = 0.0
        self._span_context: Any = None
        self.span: SpanLike = NULL_SPAN

    def __enter__(self) -> SpanLike:
        runtime = self._runtime
        self._start = runtime.clock.now()
        attributes = self._attributes
        if self._label:
            attributes = {"label": self._label, **attributes}
        self._span_context = runtime.tracer.span(
            f"{self._layer}.{self._phase}", **attributes
        )
        self.span = self._span_context.__enter__()
        return self.span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        runtime = self._runtime
        seconds = runtime.clock.now() - self._start
        self._span_context.__exit__(exc_type, exc, tb)
        _observe_in(runtime.registry, "repro_phase_seconds", seconds,
                    layer=self._layer, phase=self._phase)
        return None


class _HistTimer:
    """Times a block into a declared histogram (e.g. query latency)."""

    __slots__ = ("_runtime", "_name", "_labels", "_start")

    def __init__(self, runtime: ObsRuntime, name: str,
                 labels: Dict[str, str]) -> None:
        self._runtime = runtime
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_HistTimer":
        self._start = self._runtime.clock.now()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        seconds = self._runtime.clock.now() - self._start
        _observe_in(self._runtime.registry, self._name, seconds,
                    **self._labels)
        return None


def span(name: str, **attributes: Any) -> Any:
    """A plain tracing span (no phase histogram, no hook event)."""
    runtime = _runtime
    if runtime is None:
        return _NULL_CONTEXT
    return runtime.tracer.span(name, **attributes)


def timer(name: str, **labels: str) -> Any:
    """Context manager timing its block into histogram ``name``."""
    runtime = _runtime
    if runtime is None:
        return _NULL_CONTEXT
    return _HistTimer(runtime, name, labels)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the currently active span, if any."""
    runtime = _runtime
    if runtime is None:
        return
    runtime.tracer.current().annotate(**attributes)


def phase_span(layer: str, phase: str, label: str = "",
               **attributes: Any) -> Any:
    """The standard phase boundary: span + duration histogram.

    Use as ``with obs.phase_span("planner", "edge", label=...) as sp:``;
    the yielded span accepts :meth:`~repro.obs.tracing.Span.annotate`
    even when disabled (it is then the shared null span).
    """
    runtime = _runtime
    if runtime is None:
        return _NULL_CONTEXT
    return _PhaseSpan(runtime, layer, phase, label, attributes)


def counter_inc(name: str, amount: Union[int, float] = 1,
                **labels: str) -> None:
    """Increment a declared counter (no-op while disabled)."""
    runtime = _runtime
    if runtime is None:
        return
    child = instruments.family(runtime.registry, name).labels(**labels)
    if not isinstance(child, Counter):
        raise ObservabilityError(f"{name!r} is not a counter")
    child.inc(amount)


def gauge_set(name: str, value: Union[int, float], **labels: str) -> None:
    """Set a declared gauge (no-op while disabled)."""
    runtime = _runtime
    if runtime is None:
        return
    child = instruments.family(runtime.registry, name).labels(**labels)
    if not isinstance(child, Gauge):
        raise ObservabilityError(f"{name!r} is not a gauge")
    child.set(value)


def observe(name: str, value: Union[int, float], **labels: str) -> None:
    """Observe into a declared histogram (no-op while disabled)."""
    runtime = _runtime
    if runtime is None:
        return
    _observe_in(runtime.registry, name, value, **labels)


def _observe_in(reg: MetricsRegistry, name: str, value: Union[int, float],
                **labels: str) -> None:
    child = instruments.family(reg, name).labels(**labels)
    if not isinstance(child, Histogram):
        raise ObservabilityError(f"{name!r} is not a histogram")
    child.observe(value)


def register_collector(
    collector: Callable[[MetricsRegistry], None],
) -> Callable[[], None]:
    """Attach a scrape-time collector to the active registry.

    With observability disabled this is a no-op (the returned
    unsubscribe does nothing), so callers may register unconditionally.
    """
    runtime = _runtime
    if runtime is None:
        return lambda: None
    return runtime.registry.register_collector(collector)
