"""Parallel projections: Direct-Hop (Table 5) and Work-Sharing.

Every hop starts from the same converged common-graph state and streams
only additions, so the hops are independent.  The paper reports, as the
parallel projection, the *longest single hop* ("given a system with
sufficient cores, this is an estimate of the overall run time").  That
estimate comes from one schedule walk (:mod:`repro.core.engine`) run one
edge at a time, each on its own stopwatch; the engine itself executes
sibling hops together, as one vectorised sweep.  Work-Sharing
parallelises too (the paper's closing remark): sibling subtrees are
independent once their parent's state exists, so its projection is the
heaviest root-to-leaf chain of edge times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.results import EvolvingQueryResult
from repro.core.schedule import ScheduleTree
from repro.core.triangular_grid import Interval
from repro.graph.weights import WeightFn
from repro.utils import Stopwatch

__all__ = ["ParallelDirectHop", "ParallelResult",
           "ParallelWorkSharing", "ParallelWorkSharingResult"]

Edge = Tuple[Interval, Interval]


def _timed_walk(evaluator: WorkSharingEvaluator
                ) -> Tuple[EvolvingQueryResult, Dict[Edge, float]]:
    """Walk the schedule one edge at a time; seconds per tree edge."""
    seconds: Dict[Edge, float] = {}

    def run_sweep(edges: Sequence[Edge], compute: Callable[..., None]) -> None:
        for row, edge in enumerate(edges):
            with Stopwatch() as watch:
                compute([row])
            seconds[edge] = watch.seconds

    return evaluator.run(run_sweep=run_sweep), seconds


@dataclass
class ParallelResult:
    """Timings of a parallel Direct-Hop evaluation."""

    #: Seconds per hop, each measured alone.
    per_hop_seconds: List[float] = field(default_factory=list)
    #: Time to converge the query on the common graph.
    initial_seconds: float = 0.0
    snapshot_values: List[np.ndarray] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        """The paper's parallel estimate: the longest single hop."""
        return max(self.per_hop_seconds, default=0.0)

    @property
    def sequential_seconds(self) -> float:
        return sum(self.per_hop_seconds)


class ParallelDirectHop:
    """Times Direct-Hop's hops one by one and reports the projection."""

    def __init__(self, decomposition: CommonGraphDecomposition,
                 algorithm: MonotonicAlgorithm, source: int,
                 weight_fn: Optional[WeightFn] = None,
                 mode: str = "auto") -> None:
        self._evaluator = DirectHopEvaluator(
            decomposition, algorithm, source, weight_fn=weight_fn, mode=mode)

    def run(self) -> ParallelResult:
        walk, seconds = _timed_walk(self._evaluator)
        return ParallelResult(
            per_hop_seconds=list(seconds.values()),
            initial_seconds=walk.timer.seconds("initial_compute"),
            snapshot_values=walk.snapshot_values)


@dataclass
class ParallelWorkSharingResult:
    """Timings of a parallel Work-Sharing evaluation."""

    #: Seconds per schedule edge (parent, child), each measured alone.
    edge_seconds: Dict[Edge, float] = field(default_factory=dict)
    initial_seconds: float = 0.0
    snapshot_values: Dict[int, np.ndarray] = field(default_factory=dict)
    #: ``initial_seconds`` plus the heaviest root-to-leaf chain of
    #: ``edge_seconds``: the sufficient-cores projection.
    critical_path_seconds: float = 0.0

    @property
    def sequential_seconds(self) -> float:
        return sum(self.edge_seconds.values())


class ParallelWorkSharing:
    """Times a schedule's edges one by one and projects them onto subtree
    parallelism: a converged node's child batches are independent tasks."""

    def __init__(self, decomposition: CommonGraphDecomposition,
                 algorithm: MonotonicAlgorithm, source: int,
                 weight_fn: Optional[WeightFn] = None,
                 schedule: Optional[ScheduleTree] = None,
                 mode: str = "auto") -> None:
        self._evaluator = WorkSharingEvaluator(
            decomposition, algorithm, source,
            weight_fn=weight_fn, schedule=schedule, mode=mode)

    def run(self) -> ParallelWorkSharingResult:
        walk, edge_seconds = _timed_walk(self._evaluator)
        schedule = self._evaluator.schedule
        reached = {schedule.root: 0.0}  # chain of edge times down to a node
        for parent, child in schedule.edges():
            reached[child] = reached[parent] + edge_seconds[parent, child]
        initial = walk.timer.seconds("initial_compute")
        return ParallelWorkSharingResult(
            edge_seconds=edge_seconds, initial_seconds=initial,
            snapshot_values=dict(enumerate(walk.snapshot_values)),
            critical_path_seconds=initial + max(reached.values()))
