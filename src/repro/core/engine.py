"""Query evaluation over a schedule tree (§3.1, §3.2, §4.2): the one walk.

Every evaluator in the repo — Work-Sharing, Direct-Hop (the star
schedule), the parallel projections and the service's memoizing
planner — is :meth:`WorkSharingEvaluator.run`: converge the query on
the common graph, then for every schedule-tree edge copy the parent's
converged state, overlay the child's Δ batch on the common-graph CSR
and push the edge's additions.  The common graph is never mutated, and
a batch shared by several snapshots (an edge into an interior ICG node)
is processed exactly once.

A node's graph is composed by one rule: the common-graph CSR plus *one*
Δ CSR holding the node's whole interval surplus (none if it is empty).
It is the same edge set as the Δ chain accumulated along the path, each
edge appearing once, but a frontier round gathers from two CSRs
whatever the node's depth — and, depending on the node alone, it lets a
walk resume below any node whose state a store already holds.

Two seams, each with one production caller:

* ``store`` — a node-state store (``get(node)`` / ``put(node, state)``).
  The planner passes its epoch-keyed cache view; a node found there is
  not recomputed, and the walk reports hits and misses.
* ``run_edge`` — how one edge's computation is executed.
  :mod:`repro.core.parallel` passes its fault-hook + retry + degrade
  wrapper; by default the edge simply runs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.results import EvolvingQueryResult
from repro.core.schedule import ScheduleTree
from repro.core.steiner import build_schedule
from repro.core.triangular_grid import Interval, TriangularGrid
from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.engine import (
    EngineCounters,
    GraphLike,
    VertexState,
    incremental_additions,
    static_compute,
)

__all__ = ["EdgeRunner", "NodeStore", "WorkSharingEvaluator"]

#: Executes one schedule edge ``(parent, child)``: calls ``compute`` —
#: which may be called again, each call starts from the parent's state
#: afresh — and returns the child's converged state.
EdgeRunner = Callable[[Interval, Interval, Callable[[], VertexState]], VertexState]


class NodeStore(Protocol):
    """Converged states by schedule node, kept across walks."""

    def get(self, node: Interval) -> Optional[VertexState]: ...

    def put(self, node: Interval, state: VertexState) -> None: ...


class _NoStore:
    """The store of a walk that keeps nothing: every lookup misses."""

    def get(self, node: Interval) -> Optional[VertexState]:
        return None

    def put(self, node: Interval, state: VertexState) -> None:
        pass


def _run_directly(
    parent: Interval, child: Interval, compute: Callable[[], VertexState]
) -> VertexState:
    return compute()


class WorkSharingEvaluator:
    """Evaluates one query on all snapshots following a schedule tree.

    If no schedule is supplied, the greedy-Steiner + bypass schedule of
    Algorithm 1 is built from the decomposition's Triangular Grid.
    """

    #: Name handed to ``build_schedule`` when no schedule is supplied,
    #: and reported as the result's ``strategy``.
    strategy = "work-sharing"

    def __init__(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        weight_fn: Optional[WeightFn] = None,
        schedule: Optional[ScheduleTree] = None,
        mode: str = "auto",
    ) -> None:
        self.decomposition = decomposition
        self.algorithm = algorithm
        self.source = source
        self.weight_fn: WeightFn = weight_fn if weight_fn is not None else UnitWeights()
        self.mode = mode
        self.grid = TriangularGrid(decomposition)
        if schedule is None:
            schedule = build_schedule(self.grid, self.strategy)
        else:
            schedule.validate(self.grid)
        self.schedule = schedule

    @cached_property
    def base_csr(self) -> CSRGraph:
        """The common graph in CSR form, shared by every node's overlay."""
        return self.decomposition.common_csr(self.weight_fn)

    def _graph(self, node: Interval) -> GraphLike:
        """``ICG(node)``: the common CSR, plus one Δ CSR of its surplus."""
        surplus = self.decomposition.interval_surplus(*node)
        if not surplus:
            return self.base_csr
        delta = self.decomposition.delta_csr(surplus, self.weight_fn)
        return OverlayGraph(self.base_csr, (delta,))

    def base_state(self, counters: Optional[EngineCounters] = None) -> VertexState:
        """Converge the query on the common graph (the schedule's root)."""
        return static_compute(
            self._graph(self.schedule.root), self.algorithm, self.source,
            counters=counters, mode="sync",
        )

    def _push(
        self, parent_state: VertexState, batch: EdgeSet, child: Interval,
        counters: EngineCounters,
    ) -> VertexState:
        """One edge: ``batch`` streamed into a copy of the parent's state."""
        state = parent_state.copy()
        src, dst = batch.arrays()
        incremental_additions(
            self._graph(child), self.algorithm, state,
            src, dst, self.weight_fn(src, dst),
            counters=counters, mode=self.mode,
        )
        return state

    def run(
        self,
        keep_values: bool = True,
        *,
        store: NodeStore = _NoStore(),
        run_edge: EdgeRunner = _run_directly,
        layer: str = "engine",
    ) -> EvolvingQueryResult:
        """Execute the schedule; one incremental computation per edge.

        The walk is depth-first from the common graph.  Each node's
        state comes from ``store`` or, on a miss, is computed — the root
        by a static evaluation, any other node by ``run_edge`` from its
        parent's state — and stored; only computed edges count as
        stabilisations.  ``layer`` names the ``<layer>.root`` /
        ``<layer>.edge`` spans.
        """
        result = EvolvingQueryResult(strategy=self.strategy)

        def lookup(node: Interval, span: obs.SpanLike) -> Optional[VertexState]:
            state = store.get(node)
            if state is None:
                result.node_misses += 1
            else:
                result.node_hits += 1
            span.annotate(cache="miss" if state is None else "hit")
            return state

        root = self.schedule.root
        with result.timer.phase("initial_compute"), \
                obs.phase_span(layer, "root") as span:
            root_state = lookup(root, span)
            if root_state is None:
                root_state = self.base_state(result.counters)
                store.put(root, root_state)

        children = self.schedule.children_map()
        values: Dict[int, np.ndarray] = {}
        # Depth-first, so only states with children still to visit are
        # alive; a node's edges run in child order when it is popped.
        stack: List[Tuple[Interval, VertexState]] = [(root, root_state)]
        while stack:
            node, state = stack.pop()
            if keep_values and node[0] == node[1]:
                values[node[0]] = state.values
            for child in children[node]:
                with result.timer.phase("incremental_add") as watch, \
                        obs.phase_span(layer, "edge",
                                       label=f"{child[0]}-{child[1]}") as span:
                    before = watch.seconds
                    child_state = lookup(child, span)
                    if child_state is None:
                        batch = self.grid.label(node, child)
                        child_state = run_edge(
                            node, child,
                            lambda: self._push(state, batch, child,
                                               result.counters),
                        )
                        store.put(child, child_state)
                        result.additions_processed += len(batch)
                        result.stabilisations += 1
                result.edge_seconds[(node, child)] = watch.seconds - before
                stack.append((child, child_state))

        if keep_values:
            num_snapshots = self.decomposition.num_snapshots
            missing = [i for i in range(num_snapshots) if i not in values]
            if missing:
                raise ScheduleError(f"schedule produced no values for {missing}")
            result.snapshot_values = [values[i] for i in range(num_snapshots)]
        return result
