"""Sibling graphs stacked into one: the graph of a schedule sweep.

Hops that share a converged parent are independent (§3.1), so they run
as one computation on a *stack*: ``k`` graphs over the same ``V``
vertices, vertex ``v`` of row ``r`` being the flat vertex ``r·V + v``.
No edge crosses rows, so one fixpoint on the stack is ``k`` fixpoints,
and a ``(k × V)`` value matrix, flattened, is its vertex state.

Every row is an intermediate common graph ``ICG(i, j)``: the common
CSR, shared by all rows and never copied, plus the Δ edges present
throughout snapshots ``i..j``.  The Δ side is one structure for the
whole decomposition, :class:`IntervalDelta` — every edge outside the
common graph once, with the snapshots it spans — and a row's Δ is a
filter on it, so a stack holds no per-row arrays at all.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.utils import expand_ranges

__all__ = ["IntervalDelta", "StackedGraph"]


class IntervalDelta:
    """Every edge outside the common graph, and when it is present.

    ``csr`` holds the edges (in ``edges`` order, which is CSR order) and
    ``until[e, t]`` the last snapshot of the run of consecutive
    snapshots around ``t`` in which edge ``e`` is present, ``-1`` if it
    is absent at ``t``.  An edge belongs to ``ICG(i, j)`` — is present
    in every snapshot ``i..j`` — iff ``until[e, i] >= j``.
    """

    __slots__ = ("csr", "until")

    def __init__(self, csr: CSRGraph, edges: EdgeSet,
                 snapshots: Sequence[EdgeSet]) -> None:
        if csr.num_edges != len(edges):
            raise GraphError("the CSR does not hold exactly the given edges")
        self.csr = csr
        present = np.zeros((len(edges), len(snapshots)), dtype=bool)
        for t, snapshot in enumerate(snapshots):
            present[np.searchsorted(edges.codes, snapshot.codes), t] = True
        self.until = np.empty(present.shape, dtype=np.int32)
        run_end = np.full(len(edges), -1, dtype=np.int32)
        for t in range(len(snapshots) - 1, -1, -1):
            # Present at t: the run that continues at t + 1, or ends here.
            run_end = np.where(
                present[:, t], np.where(run_end >= 0, run_end, t), -1)
            self.until[:, t] = run_end

    def within(self, entries: np.ndarray, first: np.ndarray,
               last: np.ndarray) -> np.ndarray:
        """Is edge ``entries[...]`` in ``ICG(first[...], last[...])``?
        (Broadcasts: a column of entries against a row of nodes gives
        the membership matrix.)"""
        return self.until[entries, first] >= last


class StackedGraph:
    """``ICG(nodes[0]), …, ICG(nodes[k-1])`` as one graph of ``k·V``
    vertices (see the module docstring); ``k = 1`` is the plain ICG.

    Implements the engine's ``gather`` / ``neighbors`` protocol on flat
    vertices.  ``gather`` takes a frontier in any order.
    """

    __slots__ = ("common", "delta", "first", "last", "width", "num_vertices",
                 "max_degree")

    def __init__(self, common: CSRGraph, delta: IntervalDelta,
                 nodes: Sequence[Tuple[int, int]]) -> None:
        if delta.csr.num_vertices != common.num_vertices:
            raise GraphError("delta vertex count differs from the common graph")
        self.common = common
        self.delta = delta
        spans = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
        self.first = spans[:, 0].copy()
        self.last = spans[:, 1].copy()
        self.width = common.num_vertices
        self.num_vertices = len(spans) * self.width
        #: No flat vertex owns more out-edges than this.
        self.max_degree = common.max_degree + delta.csr.max_degree

    def gather(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat out-edges of the flat frontier, each within its own row."""
        return next(self.gathers(frontier))

    def gathers(self, frontier: np.ndarray, cap: Optional[int] = None,
                ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`gather` of ``frontier`` in pieces, one at a time: cut at
        row boundaries, each piece owning about ``cap`` out-edges (a row
        is never cut, so a piece may own up to one row's edges more).
        One piece when the frontier owns no more than ``cap``, or with no
        ``cap``; else the pieces are sorted and in row order.  Edges are
        counted before the Δ filter, so a count bounds what a row keeps.
        """
        rows = frontier // self.width
        shifts = rows * self.width
        vertices = frontier - shifts
        common, delta = self.common, self.delta.csr
        starts = common.indptr[vertices]
        degrees = common.indptr[vertices + 1] - starts
        delta_starts = delta.indptr[vertices]
        delta_degrees = delta.indptr[vertices + 1] - delta_starts
        if cap is not None and degrees.sum() + delta_degrees.sum() > cap:
            for piece in _row_pieces(frontier, rows, degrees + delta_degrees,
                                     cap):
                yield self.gather(piece)
            return
        slots = expand_ranges(starts, degrees)
        origins = np.repeat(frontier, degrees)
        targets = common.indices[slots] + np.repeat(shifts, degrees)
        weights = common.weights[slots]
        slots = expand_ranges(delta_starts, delta_degrees)
        if slots.size:
            # Each Δ edge's position in the frontier, hence its row.
            position = np.repeat(np.arange(frontier.size), delta_degrees)
            row = rows[position]
            kept = self.delta.within(
                slots, self.first[row], self.last[row]).nonzero()[0]
            if kept.size:
                slots, position = slots[kept], position[kept]
                origins = np.concatenate([origins, frontier[position]])
                targets = np.concatenate(
                    [targets, delta.indices[slots] + shifts[position]])
                weights = np.concatenate([weights, delta.weights[slots]])
        yield origins, targets, weights

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of one flat vertex's out-edges."""
        row, inner = divmod(vertex, self.width)
        targets, weights = self.common.neighbors(inner)
        delta = self.delta.csr
        lo, hi = delta.indptr[inner], delta.indptr[inner + 1]
        if hi > lo:
            kept = self.delta.within(
                slice(lo, hi), self.first[row], self.last[row])
            if kept.any():
                targets = np.concatenate([targets, delta.indices[lo:hi][kept]])
                weights = np.concatenate([weights, delta.weights[lo:hi][kept]])
        return targets + (vertex - inner), weights

    def __repr__(self) -> str:
        return (f"StackedGraph(rows={self.first.size}, V={self.width}, "
                f"|Gc|={self.common.num_edges}, |Δ|={self.delta.csr.num_edges})")


def _row_pieces(frontier: np.ndarray, rows: np.ndarray, owned: np.ndarray,
                cap: int) -> List[np.ndarray]:
    """``frontier`` (with each vertex's row and out-edge count) sorted
    and cut where a row opens past the next multiple of ``cap`` edges."""
    order = np.argsort(frontier)
    frontier, rows, owned = frontier[order], rows[order], owned[order]
    # Edges owned before each vertex, then before its row's first
    # vertex: a row goes to the piece its first edge falls in.
    before = np.cumsum(owned) - owned
    opens = np.empty(rows.size, dtype=bool)
    opens[0] = True
    np.not_equal(rows[1:], rows[:-1], out=opens[1:])
    piece = np.maximum.accumulate(np.where(opens, before, 0)) // cap
    return np.split(frontier, np.flatnonzero(np.diff(piece)) + 1)
