"""Metrics: counters, gauges and fixed-bucket histograms.

The registry follows the Prometheus data model — *families* identified
by name and type, each holding one child per label-value combination —
but is deliberately tiny and dependency-free.  Design points:

* **Cheap hot path** — an update is one dictionary hit (family), one
  dictionary hit (child, cached by the caller where it matters) and one
  uncontended lock acquire around a float add.  Locks are per-child, so
  unrelated metrics never contend.
* **Fixed bucket boundaries** — histograms take their boundaries at
  registration and never rebucket, so concurrent observes stay O(log
  buckets) and exports are directly comparable across scrapes.
* **Collectors** — callbacks run at snapshot/render time to refresh
  gauges from external sources (cache statistics, service state), the
  standard pull-model bridge for state that is already counted
  elsewhere.
* **Two exports** — :meth:`MetricsRegistry.snapshot` (JSON-able dict)
  and :meth:`MetricsRegistry.render_prometheus` (text exposition
  format, ``text/plain; version=0.0.4``).

Registration is idempotent: asking for an existing family with the same
type and label names returns it; a conflicting re-registration raises
:class:`~repro.errors.ObservabilityError`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

#: Default histogram boundaries (seconds): sub-millisecond to 10 s,
#: roughly logarithmic — sized for per-query / per-phase latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[str, ...]


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (set, or inc/dec)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Cumulative-bucket histogram with fixed boundaries.

    ``boundaries`` are the *upper* edges of the finite buckets; one
    implicit ``+Inf`` bucket catches the rest.  Exposed counts are
    cumulative, matching the Prometheus exposition format.
    """

    kind = "histogram"

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges:
            raise ObservabilityError("histogram needs at least one boundary")
        if list(edges) != sorted(set(edges)):
            raise ObservabilityError(
                f"histogram boundaries must be strictly increasing: {edges}"
            )
        self.boundaries: Tuple[float, ...] = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for edge, n in zip(self.boundaries, counts):
            total += n
            out.append((edge, total))
        out.append((float("inf"), total + counts[-1]))
        return out

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        return {
            "count": total,
            "sum": acc,
            "buckets": [
                {"le": edge, "count": n}
                for edge, n in zip(
                    (*self.boundaries, float("inf")),
                    _running_totals(counts),
                )
            ],
        }


def _running_totals(counts: Sequence[int]) -> List[int]:
    out: List[int] = []
    total = 0
    for n in counts:
        total += n
        out.append(total)
    return out


Metric = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """One named metric and its per-label-set children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, Metric] = {}

    def _make_child(self) -> Metric:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, **labelvalues: str) -> Metric:
        """The child for one label-value combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key: LabelValues = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def default(self) -> Metric:
        """The single unlabelled child (only for label-free families)."""
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} requires labels {self.labelnames}"
            )
        return self.labels()

    def children(self) -> List[Tuple[LabelValues, Metric]]:
        with self._lock:
            return sorted(self._children.items())

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._children)
        return f"MetricFamily({self.name}, {self.kind}, children={n})"


#: A collector refreshes registry state right before a snapshot/render.
Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """All metric families of one process, plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Collector] = []

    # -- registration -------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labelnames, buckets)
                self._families[name] = family
                return family
        if family.kind != kind or family.labelnames != labelnames:
            raise ObservabilityError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.labelnames}; cannot re-register as {kind} "
                f"with labels {labelnames}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames, buckets)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # -- collectors ---------------------------------------------------------
    def register_collector(self, collector: Collector) -> Callable[[], None]:
        """Run ``collector(self)`` before every export; returns unsubscribe."""
        with self._lock:
            self._collectors.append(collector)

        def unsubscribe() -> None:
            with self._lock:
                if collector in self._collectors:
                    self._collectors.remove(collector)

        return unsubscribe

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # -- exports ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of every family, collectors included."""
        self._run_collectors()
        out: Dict[str, Any] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    {
                        "labels": dict(zip(family.labelnames, key)),
                        **child.as_dict(),
                    }
                    for key, child in family.children()
                ],
            }
        return out

    def render_prometheus(self) -> str:
        """The text exposition format (``text/plain; version=0.0.4``)."""
        self._run_collectors()
        return "".join(self._render_family(f) for f in self.families())

    def _render_family(self, family: MetricFamily) -> str:
        lines: List[str] = []
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, child in family.children():
            labels = dict(zip(family.labelnames, key))
            if isinstance(child, Histogram):
                lines.extend(_render_histogram(family.name, labels, child))
            else:
                lines.append(
                    f"{family.name}{_render_labels(labels)} "
                    f"{_format_value(child.value)}"
                )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._families)
        return f"MetricsRegistry({n} families)"


def _render_histogram(
    name: str, labels: Dict[str, str], histogram: Histogram
) -> Iterator[str]:
    for edge, cumulative in histogram.cumulative():
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_value(edge)
        yield (f"{name}_bucket{_render_labels(bucket_labels)} "
               f"{cumulative}")
    yield f"{name}_sum{_render_labels(labels)} {_format_value(histogram.sum)}"
    yield f"{name}_count{_render_labels(labels)} {histogram.count}"


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name) or (
        name[0].isdigit()
    ):
        raise ObservabilityError(
            f"invalid metric/label name {name!r}: use [a-zA-Z_][a-zA-Z0-9_]*"
        )
