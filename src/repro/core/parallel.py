"""Parallel projections: Direct-Hop (Table 5) and Work-Sharing.

Because every hop starts from the same converged common-graph state and
streams only additions, the hops are embarrassingly parallel — unlike
the streaming baseline, which must visit snapshots in sequence.  The
paper reports, as the parallel projection, the *longest single hop*
("given a system with sufficient cores, this is an estimate of the
overall run time").  We reproduce exactly that estimate from per-hop
times measured by one schedule walk
(:meth:`repro.core.engine.WorkSharingEvaluator.run`) whose sweeps are
run one edge at a time.  The engine itself *executes* sibling hops
together, as one vectorised sweep; what stays a projection here is the
spread over cores.

:class:`ParallelWorkSharing` realises the paper's closing remark that
the work-sharing variant can be parallelised too: sibling subtrees of
the schedule are independent once their shared parent state exists, so
the parallel time is bounded by the critical (heaviest root-to-leaf)
path rather than the sum of all batches.

Resilience
----------

A failed hop or schedule-edge task does not crash the whole run.
Each unit executes under a :class:`~repro.resilience.RetryPolicy`
(:func:`~repro.resilience.retry_call`); if the retries are exhausted,
the unit is *recomputed sequentially from the last good parent state*
(the converged base state for Direct-Hop, the parent node's state for
Work-Sharing) outside the primary path.  Every unit carries a
:class:`TaskOutcome` record — ``ok`` / ``retried`` / ``degraded`` — so
benchmark numbers stay honest: a run that needed recovery says so.
Fault-injection hooks (:mod:`repro.faults`) fire at the start of every
primary execution; the recovery path is deliberately un-instrumented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.results import EvolvingQueryResult
from repro.core.schedule import ScheduleTree
from repro.core.triangular_grid import Interval
from repro.errors import RetryExhaustedError
from repro.graph.weights import WeightFn
from repro.resilience import RetryPolicy, retry_call
from repro.utils import Stopwatch

__all__ = [
    "ParallelDirectHop",
    "ParallelResult",
    "ParallelWorkSharing",
    "ParallelWorkSharingResult",
    "TaskOutcome",
    "TASK_RETRY_POLICY",
]

Edge = Tuple[Interval, Interval]

#: Default retry policy for parallel compute units.  Compute retries
#: are immediate (no backoff): a transient fault either clears on
#: re-execution or the unit degrades to the sequential recovery path.
TASK_RETRY_POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.0, max_delay=0.0, retry_on=(Exception,),
)


@dataclass
class TaskOutcome:
    """Execution record of one parallel unit (a hop or a schedule edge).

    ``status`` is ``"ok"`` (first attempt succeeded), ``"retried"``
    (a retry succeeded) or ``"degraded"`` (every primary attempt failed
    and the value came from the sequential recovery path).  ``error``
    preserves the last primary-path exception, if any.
    """

    label: str
    status: str = "ok"
    attempts: int = 0
    error: Optional[str] = None


def _hop_label(parent: Interval, child: Interval) -> str:
    return f"hop:{child[0]}"


def _edge_label(parent: Interval, child: Interval) -> str:
    return f"edge:{parent[0]}-{parent[1]}->{child[0]}-{child[1]}"


def _resilient_walk(
    evaluator: WorkSharingEvaluator,
    label: Callable[[Interval, Interval], str],
    retry_policy: Optional[RetryPolicy],
) -> Tuple[EvolvingQueryResult, Dict[Edge, TaskOutcome], Dict[Edge, float]]:
    """Walk the evaluator's schedule one edge at a time, each resiliently
    and on its own stopwatch (the projections need every hop timed
    alone, so a sweep is split into one-edge sweeps).

    An edge's primary execution (fault hook, then the computation) runs
    under ``policy``; once that is spent the computation runs again
    without the hook — the sequential recovery path, which is allowed
    to raise: a failure there is a real error, not an injected or
    transient one.
    """
    policy = retry_policy or TASK_RETRY_POLICY
    outcomes: Dict[Edge, TaskOutcome] = {}
    seconds: Dict[Edge, float] = {}

    def run_edge(edge: Edge, compute: Callable[[], None]) -> None:
        outcome = outcomes[edge] = TaskOutcome(label(*edge))
        kind, _, name = outcome.label.partition(":")

        def primary() -> None:
            outcome.attempts += 1
            try:
                faults.task_check(kind, name)
                compute()
            except policy.retry_on as exc:
                outcome.error = repr(exc)
                raise

        try:
            retry_call(primary, policy=policy, label=outcome.label)
        except RetryExhaustedError:
            outcome.status = "degraded"
            compute()
            return
        if outcome.attempts > 1:
            outcome.status = "retried"

    def run_sweep(edges: Sequence[Edge],
                  compute: Callable[..., None]) -> None:
        for row, edge in enumerate(edges):
            with Stopwatch() as watch:
                run_edge(edge, lambda: compute([row]))
            seconds[edge] = watch.seconds

    walk = evaluator.run(run_sweep=run_sweep)
    for outcome in outcomes.values():
        obs.counter_inc("repro_task_outcomes_total",
                        component=evaluator.strategy, status=outcome.status)
    return walk, outcomes, seconds


def _count_outcomes(outcomes: Iterable[TaskOutcome]) -> Dict[str, int]:
    counts = {"ok": 0, "retried": 0, "degraded": 0}
    for outcome in outcomes:
        counts[outcome.status] += 1
    return counts


@dataclass
class ParallelResult:
    """Timings of a parallel Direct-Hop evaluation."""

    #: Sequential time of each hop, measured independently (includes
    #: any retry/recovery time — check :attr:`outcomes` for honesty).
    per_hop_seconds: List[float] = field(default_factory=list)
    #: Time to converge the query on the common graph.
    initial_seconds: float = 0.0
    snapshot_values: List[np.ndarray] = field(default_factory=list)
    #: Per-hop execution records (``ok`` / ``retried`` / ``degraded``).
    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        """The paper's parallel estimate: the longest single hop."""
        return max(self.per_hop_seconds, default=0.0)

    @property
    def sequential_seconds(self) -> float:
        return sum(self.per_hop_seconds)

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """How many hops were ``ok`` / ``retried`` / ``degraded``."""
        return _count_outcomes(self.outcomes)


class ParallelDirectHop:
    """Measures Direct-Hop hops one by one and reports the projection."""

    def __init__(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        weight_fn: Optional[WeightFn] = None,
        mode: str = "auto",
    ) -> None:
        self._evaluator = DirectHopEvaluator(
            decomposition, algorithm, source, weight_fn=weight_fn, mode=mode
        )

    def run(self, retry_policy: Optional[RetryPolicy] = None) -> ParallelResult:
        """Measure per-hop times for the critical-path projection.

        A hop that fails is retried per ``retry_policy`` (default
        :data:`TASK_RETRY_POLICY`) and finally recomputed sequentially
        from the converged base state; ``result.outcomes`` records the
        status of every hop.
        """
        walk, outcomes, seconds = _resilient_walk(
            self._evaluator, _hop_label, retry_policy)
        return ParallelResult(
            per_hop_seconds=list(seconds.values()),
            initial_seconds=walk.timer.seconds("initial_compute"),
            snapshot_values=walk.snapshot_values,
            outcomes=list(outcomes.values()),
        )


@dataclass
class ParallelWorkSharingResult:
    """Timings of a parallel Work-Sharing evaluation."""

    #: Sequentially-measured seconds per schedule edge (parent, child).
    edge_seconds: Dict[Edge, float] = field(default_factory=dict)
    initial_seconds: float = 0.0
    snapshot_values: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Heaviest root-to-leaf path: the sufficient-cores projection.
    critical_path_seconds: float = 0.0
    #: Per-edge execution records (``ok`` / ``retried`` / ``degraded``).
    edge_outcomes: Dict[Edge, TaskOutcome] = field(default_factory=dict)

    @property
    def sequential_seconds(self) -> float:
        return sum(self.edge_seconds.values())

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """How many edges were ``ok`` / ``retried`` / ``degraded``."""
        return _count_outcomes(self.edge_outcomes.values())


class ParallelWorkSharing:
    """Projects a Work-Sharing schedule onto subtree parallelism.

    Once a schedule node's state has converged, each child batch is an
    independent task; tasks fan out down the tree.  One sequential walk
    measures per-edge times, from which the critical-path projection is
    computed.  A failed edge task is retried, then recomputed
    sequentially from its parent's (still in hand) state, so one bad
    task cannot lose already-computed snapshot values.
    """

    def __init__(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        weight_fn: Optional[WeightFn] = None,
        schedule: Optional[ScheduleTree] = None,
        mode: str = "auto",
    ) -> None:
        self._evaluator = WorkSharingEvaluator(
            decomposition, algorithm, source,
            weight_fn=weight_fn, schedule=schedule, mode=mode,
        )

    def run(
        self, retry_policy: Optional[RetryPolicy] = None
    ) -> ParallelWorkSharingResult:
        """Measure per-edge times; project them onto the critical path.

        Edge tasks execute under ``retry_policy`` (default
        :data:`TASK_RETRY_POLICY`) with sequential recomputation from
        the parent state as the final fallback;
        ``result.edge_outcomes`` records every edge's status.
        """
        walk, outcomes, edge_seconds = _resilient_walk(
            self._evaluator, _edge_label, retry_policy)
        schedule = self._evaluator.schedule
        children = schedule.children_map()

        # Critical path: heaviest root-to-leaf chain of edge times.
        def path_cost(node: Interval) -> float:
            return max(
                (edge_seconds[(node, k)] + path_cost(k)
                 for k in children[node]),
                default=0.0,
            )

        initial = walk.timer.seconds("initial_compute")
        return ParallelWorkSharingResult(
            edge_seconds=edge_seconds,
            initial_seconds=initial,
            snapshot_values=dict(enumerate(walk.snapshot_values)),
            critical_path_seconds=initial + path_cost(schedule.root),
            edge_outcomes=outcomes,
        )
