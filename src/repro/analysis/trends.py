"""Trend tracking: a query property traced across snapshots.

:class:`TrendTracker` glues the pieces together: it takes an evolving
graph, decomposes it, evaluates the query on every snapshot (or a
range) with a CommonGraph strategy, and reduces the per-snapshot vertex
values to named metric series.  :func:`detect_changes` flags snapshots
where a series jumps by more than a robust threshold — the "what
changed, and when?" question evolving-graph analytics exists to answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.analysis.metrics import Metric, evaluate_metric
from repro.bench.reporting import render_chart, render_table
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator, planned_schedule
from repro.core.steiner import schedule_builder
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.weights import WeightFn

__all__ = ["TrendReport", "TrendTracker", "detect_changes"]

MetricSpec = Union[str, Metric]


@dataclass
class TrendReport:
    """Named metric series over a window of snapshots."""

    first_snapshot: int
    series: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def num_snapshots(self) -> int:
        return len(next(iter(self.series.values()), []))

    def snapshots(self) -> List[int]:
        return list(range(self.first_snapshot, self.first_snapshot + self.num_snapshots))

    def render(self, title: str = "trend report") -> str:
        headers = ["snapshot"] + list(self.series)
        rows = [
            [snap] + [round(self.series[name][k], 4) for name in self.series]
            for k, snap in enumerate(self.snapshots())
        ]
        return render_table(headers, rows, title=title)

    def chart(self, names: Optional[Sequence[str]] = None, **kwargs: object) -> str:
        names = list(names) if names is not None else list(self.series)
        return render_chart(
            [float(s) for s in self.snapshots()],
            {name: self.series[name] for name in names},
            **kwargs,
        )


def detect_changes(
    series: Sequence[float], threshold: float = 3.0
) -> List[int]:
    """Indices where the step change is an outlier among all steps.

    A step is flagged when it deviates from the median step by more
    than ``threshold`` times the median absolute deviation (a robust
    z-score).  With fewer than 4 steps nothing is flagged.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.size < 5:
        return []
    steps = np.diff(values)
    med = np.median(steps)
    mad = np.median(np.abs(steps - med))
    # For (nearly) flat series the MAD collapses to zero; fall back to a
    # small fraction of the series' own range so routine noise is not
    # flagged but a genuine level shift is.
    value_range = float(values.max() - values.min())
    scale = mad if mad > 0 else 0.02 * value_range
    if scale == 0:
        return []
    flagged = np.abs(steps - med) > threshold * scale
    return [int(i) + 1 for i in np.flatnonzero(flagged)]


class TrendTracker:
    """Evaluates metric trends for one query over an evolving graph."""

    def __init__(
        self,
        evolving: EvolvingGraph,
        algorithm: MonotonicAlgorithm,
        source: int,
        weight_fn: Optional[WeightFn] = None,
        strategy: str = "work-sharing",
    ) -> None:
        self.evolving = evolving
        self.algorithm = algorithm
        self.source = source
        self.weight_fn = weight_fn
        self.strategy = strategy
        schedule_builder(strategy)  # an unknown name fails at construction
        self._decomposition: Optional[CommonGraphDecomposition] = None

    @property
    def decomposition(self) -> CommonGraphDecomposition:
        if self._decomposition is None:
            self._decomposition = CommonGraphDecomposition.from_evolving(self.evolving)
        return self._decomposition

    def track(
        self,
        metrics: Sequence[MetricSpec] = ("reach", "mean", "extreme"),
        first: int = 0,
        last: int = -1,
    ) -> TrendReport:
        """Evaluate the query and reduce each snapshot to metric values."""
        if last < 0:
            last += self.evolving.num_snapshots
        result = WorkSharingEvaluator(
            self.decomposition, self.algorithm, self.source,
            weight_fn=self.weight_fn,
            schedule=planned_schedule(self.decomposition, self.strategy,
                                      first, last),
            first=first, last=last,
        ).run()
        report = TrendReport(first_snapshot=first)
        for metric in metrics:
            name = metric if isinstance(metric, str) else getattr(
                metric, "__name__", "metric"
            )
            report.series[name] = [
                evaluate_metric(metric, values, self.algorithm)
                for values in result.snapshot_values
            ]
        return report
