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
fixpoint on it is unique whatever order computed it, and a walk may
resume below any node whose state a store already holds.  The common
graph is never mutated, and a batch shared by several snapshots (an
edge into an interior ICG node) is processed exactly once.

A snapshot range ``first..last`` is the same walk on the sub-grid rooted
at node ``(first, last)``, in the decomposition's own coordinates: the
root's graph is ``ICG(first, last)`` by the rule above, and no
restricted decomposition is built.

**Plan once, evaluate many.**  Nothing above depends on the query, so an
evaluator builds none of it: it reads the decomposition's plan memo
(:meth:`CommonGraphDecomposition.plan`), which holds, built on first
use and shared by every later evaluator of that decomposition,

* ``("common", weight_fn)`` — the common graph's CSR;
* ``("delta", weight_fn)`` — the
  :class:`~repro.graph.stacked.IntervalDelta`: every edge outside the
  common graph once, with the snapshots it spans.  Every node's Δ and
  every edge's batch is a filter on it, so the plan holds no per-node
  graph and asks the decomposition for no interval surplus;
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

Two seams, each with one production caller:

* ``store`` — a node-state store (``get(node)`` / ``put(node, state)``).
  The planner passes its epoch-keyed cache view; a node found there
  fills its row and is not recomputed, and the walk reports hits and
  misses.
* ``run_sweep`` — how the edges of one sweep are executed.
  :mod:`repro.core.parallel` runs them one at a time, each on its own
  stopwatch; by default they run together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

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
    GraphLike,
    VertexState,
    incremental_additions,
    static_compute,
)
from repro.utils import expand_ranges

__all__ = ["NodeStore", "SweepRunner", "WorkSharingEvaluator",
           "planned_schedule"]

Edge = Tuple[Interval, Interval]

#: Executes the tree edges of one sweep.  ``compute(picked)`` converges
#: the children of ``edges[picked]`` (an index array or slice), starting
#: from their parents' states afresh on every call; each edge must be
#: covered by a call that returned.
SweepRunner = Callable[[Sequence[Edge], Callable[..., None]], None]


class NodeStore(Protocol):
    """Converged states by schedule node, kept across walks."""

    def get(self, node: Interval) -> Optional[VertexState]: ...

    def put(self, node: Interval, state: VertexState) -> None: ...


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


class WorkSharingEvaluator:
    """Evaluates one query on snapshots ``first..last`` following a schedule tree.

    If no schedule is supplied, the decomposition's planned
    range-halving schedule for that range is used, sweeps included; a
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
        return self.decomposition.plan(
            ("common", self.weight_fn),
            lambda: self.decomposition.common_csr(self.weight_fn),
        )

    @cached_property
    def delta(self) -> IntervalDelta:
        """Every edge outside the common graph, with the snapshots it spans."""
        def build() -> IntervalDelta:
            surpluses = self.decomposition.surpluses
            edges = EdgeSet(np.concatenate(
                [surplus.codes for surplus in surpluses]))
            return IntervalDelta(
                self.decomposition.delta_csr(edges, self.weight_fn),
                edges, surpluses)

        return self.decomposition.plan(("delta", self.weight_fn), build)

    def _root_graph(self) -> GraphLike:
        """``ICG(root)``: the common CSR itself when no Δ edge spans the
        whole range (always so for the full range)."""
        root = self.schedule.root
        if not self.delta.within(slice(None), *root).any():
            return self.base_csr
        return StackedGraph(self.base_csr, self.delta, [root])

    def base_state(self, counters: Optional[EngineCounters] = None) -> VertexState:
        """Converge the query on the range's common graph (the schedule's root)."""
        return static_compute(
            self._root_graph(), self.algorithm, self.source,
            counters=counters, mode="sync",
        )

    def run(
        self,
        keep_values: bool = True,
        *,
        store: Optional[NodeStore] = None,
        run_sweep: SweepRunner = _run_together,
        layer: str = "engine",
    ) -> EvolvingQueryResult:
        """Execute the schedule; one incremental computation per sweep.

        The walk is level by level from the common graph.  Each node's
        state comes from ``store`` or, on a miss, is computed — the root
        by a static evaluation, the missing nodes of a level by
        ``run_sweep`` from their parents' rows — and stored; only
        computed edges count as stabilisations.  ``layer`` names the
        ``<layer>.root`` / ``<layer>.sweep`` spans.
        """
        result = EvolvingQueryResult(strategy=self.strategy)
        width = self.decomposition.num_vertices

        def held(node: Interval) -> Optional[VertexState]:
            state = None if store is None else store.get(node)
            if state is None:
                result.node_misses += 1
            else:
                result.node_hits += 1
            return state

        root = self.schedule.root
        with result.timer.phase("initial_compute"), \
                obs.phase_span(layer, "root") as span:
            root_state = held(root)
            span.annotate(cache="miss" if root_state is None else "hit")
            if root_state is None:
                root_state = self.base_state(result.counters)
                if store is not None:
                    store.put(root, root_state)

        values: Dict[int, np.ndarray] = {}
        if root[0] == root[1]:
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
                    obs.phase_span(layer, "sweep",
                                   edges=len(level.edges)) as span:
                matrix = arena[filled:filled + len(level.edges)]
                filled += len(level.edges)
                missing = []
                for row, (_, child) in enumerate(level.edges):
                    state = held(child)
                    if state is None:
                        missing.append(row)
                    else:
                        matrix[row] = state.values
                span.annotate(hits=len(level.edges) - len(missing),
                              misses=len(missing))
                if missing:
                    self._sweep(level, above, matrix,
                                np.array(missing, dtype=np.int64),
                                run_sweep, result)
                    if store is not None:
                        for row in missing:
                            store.put(level.edges[row][1], VertexState(
                                values=matrix[row], source=self.source))
            if keep_values:
                for snapshot, row in level.leaves:
                    values[snapshot] = matrix[row]
            above = matrix

        if keep_values:
            snapshots = range(root[1] - root[0] + 1)
            absent = [root[0] + i for i in snapshots if i not in values]
            if absent:
                raise ScheduleError(f"schedule produced no values for {absent}")
            result.snapshot_values = [values[i] for i in snapshots]
        return result

    def _sweep(
        self, level: _Level, above: np.ndarray, matrix: np.ndarray,
        missing: np.ndarray, run_sweep: SweepRunner,
        result: EvolvingQueryResult,
    ) -> None:
        """Converge rows ``missing`` of ``matrix`` from their parents' rows."""
        state = VertexState(values=matrix.reshape(-1), source=self.source)

        def compute(picked: object) -> None:
            rows = missing[picked]
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

        run_sweep([level.edges[row] for row in missing], compute)
        result.stabilisations += missing.size
        result.additions_processed += int(
            (level.offsets[missing + 1] - level.offsets[missing]).sum())
