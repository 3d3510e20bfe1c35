"""Query evaluation over a schedule tree (§3.1, §3.2, §4.2): the one walk.

Every evaluator in the repo — Work-Sharing, Direct-Hop (the star
schedule), the parallel projections and the service's memoizing
planner — is :meth:`WorkSharingEvaluator.run`: converge the query on
the common graph, then descend the schedule tree one **level** at a
time.  The tree edges of a level hang off converged parents, so they
are independent (the paper's point about Direct-Hop and the bypass
step, §3.1–3.2), and they run as one *sweep*: the children's rows of a
``(k × V)`` value matrix are copied from their parents' rows, every
edge's batch is seeded by one ``incremental_additions`` call over flat
``row·V + v`` vertices, and one stabilisation runs on the level's
:class:`~repro.graph.stacked.StackedGraph`.  A walk therefore costs
(tree depth × a few rounds) vectorised steps, not (edges × (seed +
rounds)); ``k = 1`` is the same code, and the star schedule is the
one-level case.  This is the executed form of the paper's hop
parallelism — NumPy's parallel hardware is the vector lane;
:mod:`repro.core.parallel` remains a projection onto cores.

Row ``r`` of a level is ``ICG(node_r)``: the common CSR plus the Δ
edges present throughout the node's snapshots.  That depends on the
node alone — never on the path that reached it — so a monotonic
fixpoint on it is unique whatever order computed it: a snapshot's
values are the same whichever walk reached its leaf, which is what lets
the service cache them per snapshot.  The common graph is never
mutated, and a batch shared by several snapshots (an edge into an
interior ICG node) is processed exactly once.

A snapshot range ``first..last`` is the same walk on the sub-grid rooted
at node ``(first, last)``, in the decomposition's own coordinates: the
root's graph is ``ICG(first, last)`` by the rule above, and no
restricted decomposition is built.  The root is reached as every other
node is, from the common graph: a static convergence on the common CSR
(dense rounds included), then one hop adding the Δ edges present
throughout the range.  A caller that already holds the query's values
on the common graph hands them in as ``run(root=...)`` and the static
convergence is skipped; every walk reports the common-graph values it
started from as its result's ``root`` (the service keeps them, and
derives the next window's from them after an ingest).

**Plan once, evaluate many.**  Nothing above depends on the query, so an
evaluator builds none of it: it reads the decomposition's plan memo
(:meth:`CommonGraphDecomposition.plan`), which holds, built on first
use and shared by every later evaluator of that decomposition,

* ``("common", weight_fn)`` — the common graph's CSR, carrying its
  in-edge view (so its dense rounds pull) unless the decomposition was
  made by ``extended()``;
* ``("delta", weight_fn)`` — the
  :class:`~repro.graph.stacked.IntervalDelta`: every edge outside the
  common graph once, with the snapshots it spans.  Every node's Δ and
  every edge's batch is a filter on it, so the plan holds no per-node
  graph and asks the decomposition for no interval surplus.  These two
  are read through :func:`planned_graphs`, as the version controller
  and the live tip's repair read them too;
* ``("schedule", strategy, first, last)`` — the schedule tree
  (:func:`planned_schedule`);
* ``("levels", strategy, first, last, weight_fn)`` — that tree's
  sweeps: per level the row → node and row → parent-row maps and the
  seeds (each edge's batch as flat arrays, with per-row offsets).

Weight functions key by value (:mod:`repro.graph.weights`).  The plan
needs no bound of its own: beside the two graphs it holds, per planned
range, a tree and as many seeds as the tree costs, and it dies with the
decomposition, which every ingest replaces.  A caller-supplied schedule
is levelled when the evaluator is built and memoised nowhere.

One seam, with one production caller: ``run_sweep`` — how the edges
of one sweep are executed.  :mod:`repro.core.parallel` runs them one at
a time, each on its own stopwatch; by default they run together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.graph.edgeset import EdgeSet
from repro.graph.stacked import IntervalDelta, StackedGraph
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.engine import (
    EngineCounters,
    VertexState,
    incremental_additions,
    static_compute,
)
from repro.utils import expand_ranges

__all__ = ["SweepRunner", "WorkSharingEvaluator", "planned_graphs",
           "planned_schedule"]

Edge = Tuple[Interval, Interval]

#: Executes the tree edges of one sweep.  ``compute(picked)`` converges
#: the children of ``edges[picked]`` (an index array or slice), starting
#: from their parents' states afresh on every call; each edge must be
#: covered by a call that returned.
SweepRunner = Callable[[Sequence[Edge], Callable[..., None]], None]


def _run_together(edges: Sequence[Edge], compute: Callable[..., None]) -> None:
    compute(slice(None))


@dataclass(frozen=True)
class _Level:
    """One sweep of a schedule: the tree edges ending at one depth."""

    edges: List[Edge]
    #: Row → the parent's row in the level above.
    parents: np.ndarray
    #: ``ICG(child)`` of every row, stacked.
    graph: StackedGraph
    #: Every row's batch — the additions growing its parent's ICG into
    #: its own — as flat parallel arrays, row by row; row ``r`` owns
    #: ``offsets[r]:offsets[r + 1]``.
    origins: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    #: ``(snapshot, row)`` of the rows that are snapshots (snapshots
    #: counted from the range's first).
    leaves: List[Tuple[int, int]]

    def seeds(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batches of ``rows`` (all of them: the arrays as they are)."""
        if rows.size == len(self.edges):
            return self.origins, self.targets, self.weights
        starts = self.offsets[rows]
        picked = expand_ranges(starts, self.offsets[rows + 1] - starts)
        return self.origins[picked], self.targets[picked], self.weights[picked]


def _levels(tree: ScheduleTree, common: CSRGraph,
            delta: IntervalDelta) -> List[_Level]:
    """``tree`` as sweeps over ``common`` + ``delta``."""
    width = common.num_vertices
    sources, targets, weights = delta.csr.edge_arrays()
    entries = np.arange(targets.size)[:, None]
    levels: List[_Level] = []
    row_of = {tree.root: 0}
    for edges in tree.levels():
        outer = np.array([p for p, _ in edges], dtype=np.int64)
        children = np.array([c for _, c in edges], dtype=np.int64)
        # An edge's batch: in the child's ICG, not yet in the parent's.
        fresh = (delta.within(entries, children[:, 0], children[:, 1])
                 & ~delta.within(entries, outer[:, 0], outer[:, 1]))
        rows, picked = fresh.T.nonzero()
        shifts = rows * width
        offsets = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(edges)), out=offsets[1:])
        levels.append(_Level(
            edges=edges,
            parents=np.array([row_of[p] for p, _ in edges], dtype=np.int64),
            graph=StackedGraph(common, delta, children),
            origins=sources[picked] + shifts,
            targets=targets[picked] + shifts,
            weights=weights[picked],
            offsets=offsets,
            leaves=[(i - tree.root[0], row)
                    for row, (_, (i, j)) in enumerate(edges) if i == j],
        ))
        row_of = {child: row for row, (_, child) in enumerate(edges)}
    return levels


def _subgrid(decomposition: CommonGraphDecomposition, first: int,
             last: Optional[int]) -> TriangularGrid:
    """The grid of snapshots ``first..last`` (``None``: up to the tip)."""
    n = decomposition.num_snapshots
    if last is None:
        last = n - 1
    if not 0 <= first <= last < n:
        raise SnapshotError(f"invalid range ({first}, {last}) for {n} snapshots")
    return TriangularGrid(decomposition).subgrid(first, last)


def _planned_tree(grid: TriangularGrid, strategy: str) -> ScheduleTree:
    return grid.decomposition.plan(
        ("schedule", strategy) + grid.root,
        lambda: build_schedule(grid, strategy))


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
    return _planned_tree(_subgrid(decomposition, first, last), strategy)


def planned_graphs(
    decomposition: CommonGraphDecomposition, weight_fn: WeightFn,
) -> Tuple[CSRGraph, IntervalDelta]:
    """The plan's two graphs: the common CSR and the
    :class:`~repro.graph.stacked.IntervalDelta`, each built once per
    decomposition and weight function and shared by every caller
    (never mutated).

    The common CSR carries its in-edge view, so its dense rounds pull,
    when the decomposition was built from a history (``moved is
    None``).  An :meth:`~CommonGraphDecomposition.extended` one lives
    for one ingest: its queries would not repay the build, so its dense
    rounds stream.
    """
    def build_common() -> CSRGraph:
        common = decomposition.common_csr(weight_fn)
        if decomposition.moved is None:
            common.index_in_edges()
        return common

    def build_delta() -> IntervalDelta:
        surpluses = decomposition.surpluses
        edges = EdgeSet(np.concatenate(
            [surplus.codes for surplus in surpluses]))
        return IntervalDelta(decomposition.delta_csr(edges, weight_fn),
                             edges, surpluses)

    common = decomposition.plan(("common", weight_fn), build_common)
    return common, decomposition.plan(("delta", weight_fn), build_delta)


class WorkSharingEvaluator:
    """Evaluates one query on snapshots ``first..last`` following a schedule tree.

    If no schedule is supplied, the decomposition's planned
    four-way split schedule for that range is used, sweeps included; a
    supplied one is validated against the range's sub-grid and walked
    as given.  Either way the graphs come from the plan.
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
            self.schedule = _planned_tree(self.grid, self.strategy)
            self._levels = decomposition.plan(
                ("levels", self.strategy) + self.grid.root + (self.weight_fn,),
                self._level_up)
        else:
            schedule.validate(self.grid)
            self.schedule = schedule
            self._levels = self._level_up()

    def _level_up(self) -> List[_Level]:
        return _levels(self.schedule, self.base_csr, self.delta)

    @cached_property
    def base_csr(self) -> CSRGraph:
        """The common graph in CSR form, shared by every row of every sweep."""
        return planned_graphs(self.decomposition, self.weight_fn)[0]

    @cached_property
    def delta(self) -> IntervalDelta:
        """Every edge outside the common graph, with the snapshots it spans."""
        return planned_graphs(self.decomposition, self.weight_fn)[1]

    def base_state(self, counters: Optional[EngineCounters] = None) -> VertexState:
        """Converge the query on ``ICG(first, last)``, the schedule's root.

        The static convergence always runs on the window's common CSR,
        where a sync round may stream every edge at once; a range whose
        ICG holds more — the Δ edges present throughout it — then takes
        them in as one batch of additions, the paper's hop from ``Gc``.
        The fixpoint is the same either way, and converging the range's
        one-row stack from scratch, with sparse rounds only, cost about
        twice as much on LJ/16.
        """
        return self._converge(counters, None)[1]

    def _converge(self, counters: Optional[EngineCounters],
                  root: Optional[np.ndarray]) -> Tuple[np.ndarray, VertexState]:
        """``(common-graph values, state on ICG(first, last))``: the
        first is ``root`` when given (read, never written), else the
        static convergence."""
        if root is None:
            root = static_compute(self.base_csr, self.algorithm, self.source,
                                  counters=counters, mode="sync").values
        spanning = np.flatnonzero(self.delta.within(slice(None), *self.schedule.root))
        state = VertexState(values=root.copy() if spanning.size else root,
                            source=self.source)
        if spanning.size:
            sources, targets, weights = self.delta.csr.edge_arrays()
            incremental_additions(
                StackedGraph(self.base_csr, self.delta, [self.schedule.root]),
                self.algorithm, state, sources[spanning], targets[spanning],
                weights[spanning], counters=counters, mode=self.mode)
        return root, state

    def run(
        self,
        keep_values: bool = True,
        *,
        root: Optional[np.ndarray] = None,
        run_sweep: SweepRunner = _run_together,
        layer: str = "engine",
    ) -> EvolvingQueryResult:
        """Execute the schedule; one incremental computation per sweep.

        The walk is level by level from the common graph: the root as
        :meth:`base_state` reaches it (from ``root``, the query's
        common-graph values, when given), then each level's nodes by
        ``run_sweep`` from their parents' rows.  The result's ``root`` is the
        common-graph values the walk started from; nothing writes them.
        ``layer`` names the ``<layer>.root`` / ``<layer>.sweep`` spans.
        """
        result = EvolvingQueryResult(strategy=self.strategy)
        width = self.decomposition.num_vertices
        top = self.schedule.root
        with result.timer.phase("initial_compute"), \
                obs.phase_span(layer, "root"):
            result.root, root_state = self._converge(result.counters, root)

        values: Dict[int, np.ndarray] = {}
        if top[0] == top[1]:
            values[0] = root_state.values
        above = root_state.values.reshape(1, width)
        # One allocation holds every node's row, level after level: a
        # walk that allocated its levels one by one ran up to a third
        # slower whenever the allocator's trimming fell out of step with
        # them (same code, other heap layout).
        arena = np.empty(
            (sum(len(level.edges) for level in self._levels), width))
        filled = 0
        for level in self._levels:
            with result.timer.phase("incremental_add"), \
                    obs.phase_span(layer, "sweep", edges=len(level.edges)):
                matrix = arena[filled:filled + len(level.edges)]
                filled += len(level.edges)
                self._sweep(level, above, matrix, run_sweep, result)
            if keep_values:
                for snapshot, row in level.leaves:
                    values[snapshot] = matrix[row]
            above = matrix

        if keep_values:
            snapshots = range(top[1] - top[0] + 1)
            absent = [top[0] + i for i in snapshots if i not in values]
            if absent:
                raise ScheduleError(f"schedule produced no values for {absent}")
            result.snapshot_values = [values[i] for i in snapshots]
        return result

    def _sweep(
        self, level: _Level, above: np.ndarray, matrix: np.ndarray,
        run_sweep: SweepRunner, result: EvolvingQueryResult,
    ) -> None:
        """Converge every row of ``matrix`` from its parent's row."""
        state = VertexState(values=matrix.reshape(-1), source=self.source)
        every = np.arange(len(matrix))

        def compute(picked: object) -> None:
            rows = every[picked]
            if rows.size == len(matrix):
                # "clip" only because take() then writes straight into
                # ``out``; the default mode goes through a buffer.
                np.take(above, level.parents, axis=0, out=matrix, mode="clip")
            else:
                matrix[rows] = above[level.parents[rows]]
            incremental_additions(
                level.graph, self.algorithm, state, *level.seeds(rows),
                counters=result.counters, mode=self.mode,
            )

        run_sweep(level.edges, compute)
        result.stabilisations += len(level.edges)
        result.additions_processed += int(level.offsets[-1])
