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

A snapshot range ``first..last`` is the same walk on the sub-grid rooted
at node ``(first, last)``, in the decomposition's own coordinates: the
root's graph is ``ICG(first, last)`` by the rule above, and no
restricted decomposition is built.

**Plan once, evaluate many.**  Nothing above depends on the query, so an
evaluator builds none of it: it reads the decomposition's plan memo
(:meth:`CommonGraphDecomposition.plan`), which holds, built on first
use and shared by every later evaluator of that decomposition,

* ``("schedule", strategy, first, last)`` — the schedule tree and its
  children map (:func:`planned_schedule`);
* ``("common", weight_fn)`` — the common graph's CSR;
* ``("graph", node, weight_fn)`` — the node's graph, so every range,
  source and algorithm composes a node from the same two CSRs;
* ``("batch", parent, child, weight_fn)`` — a tree edge's label as
  ready ``(sources, targets, weights)`` arrays.

Weight functions key by value (:mod:`repro.graph.weights`).  The plan
needs no bound of its own: it holds at most one graph per grid node and
one batch per edge of a planned tree, and it dies with the
decomposition, which every ingest replaces.

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
from repro.errors import ScheduleError, SnapshotError
from repro.graph.csr import CSRGraph
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.engine import (
    EngineCounters,
    GraphLike,
    VertexState,
    incremental_additions,
    static_compute,
)

__all__ = ["EdgeRunner", "NodeStore", "WorkSharingEvaluator",
           "planned_schedule"]

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


ChildrenMap = Dict[Interval, List[Interval]]
#: A tree edge's additions: parallel ``(sources, targets, weights)``.
Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _subgrid(decomposition: CommonGraphDecomposition, first: int,
             last: Optional[int]) -> TriangularGrid:
    """The grid of snapshots ``first..last`` (``None``: up to the tip)."""
    n = decomposition.num_snapshots
    if last is None:
        last = n - 1
    if not 0 <= first <= last < n:
        raise SnapshotError(f"invalid range ({first}, {last}) for {n} snapshots")
    return TriangularGrid(decomposition).subgrid(first, last)


def _planned_tree(grid: TriangularGrid,
                  strategy: str) -> Tuple[ScheduleTree, ChildrenMap]:
    """The planned ``strategy`` tree over ``grid``, with its children map."""
    def build() -> Tuple[ScheduleTree, ChildrenMap]:
        tree = build_schedule(grid, strategy)
        return tree, tree.children_map()

    return grid.decomposition.plan(("schedule", strategy) + grid.root, build)


def planned_schedule(
    decomposition: CommonGraphDecomposition,
    strategy: str = "work-sharing",
    first: int = 0,
    last: Optional[int] = None,
) -> ScheduleTree:
    """The ``strategy`` schedule of snapshots ``first..last``, built once.

    The tree is shared by every caller of this decomposition: treat it
    as read-only.
    """
    return _planned_tree(_subgrid(decomposition, first, last), strategy)[0]


class WorkSharingEvaluator:
    """Evaluates one query on snapshots ``first..last`` following a schedule tree.

    If no schedule is supplied, the decomposition's planned
    greedy-Steiner + bypass schedule of Algorithm 1 for that range is
    used; a supplied one is validated against the range's sub-grid.
    Either way node graphs and edge batches come from the plan.
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
        first: int = 0,
        last: Optional[int] = None,
    ) -> None:
        self.decomposition = decomposition
        self.algorithm = algorithm
        self.source = source
        self.weight_fn: WeightFn = weight_fn if weight_fn is not None else UnitWeights()
        self.mode = mode
        self.grid = _subgrid(decomposition, first, last)
        if schedule is None:
            schedule, children = _planned_tree(self.grid, self.strategy)
        else:
            schedule.validate(self.grid)
            children = schedule.children_map()
        self.schedule = schedule
        self._children = children

    @cached_property
    def base_csr(self) -> CSRGraph:
        """The common graph in CSR form, shared by every node's overlay."""
        return self.decomposition.plan(
            ("common", self.weight_fn),
            lambda: self.decomposition.common_csr(self.weight_fn),
        )

    def _graph(self, node: Interval) -> GraphLike:
        """``ICG(node)``: the common CSR, plus one Δ CSR of its surplus."""
        def compose() -> GraphLike:
            surplus = self.decomposition.interval_surplus(*node)
            if not surplus:
                return self.base_csr
            delta = self.decomposition.delta_csr(surplus, self.weight_fn)
            return OverlayGraph(self.base_csr, (delta,))

        return self.decomposition.plan(("graph", node, self.weight_fn), compose)

    def _batch(self, parent: Interval, child: Interval) -> Batch:
        """The additions on edge ``parent → child``, with their weights."""
        def build() -> Batch:
            src, dst = self.grid.label(parent, child).arrays()
            return src, dst, self.weight_fn(src, dst)

        return self.decomposition.plan(
            ("batch", parent, child, self.weight_fn), build)

    def base_state(self, counters: Optional[EngineCounters] = None) -> VertexState:
        """Converge the query on the range's common graph (the schedule's root)."""
        return static_compute(
            self._graph(self.schedule.root), self.algorithm, self.source,
            counters=counters, mode="sync",
        )

    def _push(
        self, parent_state: VertexState, batch: Batch, child: Interval,
        counters: EngineCounters,
    ) -> VertexState:
        """One edge: ``batch`` streamed into a copy of the parent's state."""
        state = parent_state.copy()
        incremental_additions(
            self._graph(child), self.algorithm, state, *batch,
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

        values: Dict[int, np.ndarray] = {}
        # Depth-first, so only states with children still to visit are
        # alive; a node's edges run in child order when it is popped.
        stack: List[Tuple[Interval, VertexState]] = [(root, root_state)]
        while stack:
            node, state = stack.pop()
            if keep_values and node[0] == node[1]:
                values[node[0]] = state.values
            for child in self._children[node]:
                with result.timer.phase("incremental_add") as watch, \
                        obs.phase_span(layer, "edge",
                                       label=f"{child[0]}-{child[1]}") as span:
                    before = watch.seconds
                    child_state = lookup(child, span)
                    if child_state is None:
                        batch = self._batch(node, child)
                        child_state = run_edge(
                            node, child,
                            lambda: self._push(state, batch, child,
                                               result.counters),
                        )
                        store.put(child, child_state)
                        result.additions_processed += batch[0].size
                        result.stabilisations += 1
                result.edge_seconds[(node, child)] = watch.seconds - before
                stack.append((child, child_state))

        if keep_values:
            snapshots = range(root[0], root[1] + 1)
            missing = [i for i in snapshots if i not in values]
            if missing:
                raise ScheduleError(f"schedule produced no values for {missing}")
            result.snapshot_values = [values[i] for i in snapshots]
        return result
