"""Immutable Compressed-Sparse-Row graph.

This is the storage format used for the common graph and for every
delta batch (the paper stores the CommonGraph and each Δ batch in CSR
form so snapshots are *composed*, never mutated; see §4.1).

The engine-facing protocol is :meth:`CSRGraph.gather`: given a frontier
of active vertices, return the flat ``(sources, targets, weights)``
arrays of all their out-edges with no Python-level loop.

A CSR may also carry an **in-edge view** (:class:`InEdges`, built once
by :meth:`CSRGraph.index_in_edges`): every edge grouped by target,
stably, so each target's in-edges keep their CSR order.  A sync round
that relaxes every edge then *pulls* — one segmented reduction per
target — instead of streaming the edges in CSR order and
scatter-reducing the improving ones.  The view costs two more
edge-length arrays (+2.7 MB on the DL/50 common graph, ~3 ms to
build), so only a CSR that many queries converge on carries it: the
common graph of a decomposition built from a history
(``repro.core.engine.planned_graphs``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.edgeset import EdgeSet, decode_edges, encode_edges
from repro.graph.weights import UnitWeights, WeightFn
from repro.utils import expand_ranges, read_only

__all__ = ["CSRGraph", "InEdges"]


class InEdges(NamedTuple):
    """Every edge of a CSR grouped by target, each target's edges in
    CSR order.  Target ``targets[k]`` owns edges
    ``bounds[k]:bounds[k + 1]``; only vertices with in-edges are listed,
    so no segment is empty."""

    #: Origin of every in-edge.
    origins: np.ndarray
    #: Weight of every in-edge.
    weights: np.ndarray
    #: The vertices that have in-edges, ascending.
    targets: np.ndarray
    #: ``len(targets) + 1`` segment bounds into ``origins`` / ``weights``.
    bounds: np.ndarray


class CSRGraph:
    """Directed graph in CSR form with per-edge float weights.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0..num_vertices-1``.
    indptr:
        ``int64`` array of length ``num_vertices + 1``.
    indices:
        ``int64`` array of edge targets, grouped by source.
    weights:
        ``float64`` array parallel to ``indices``.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "weights", "max_degree",
                 "in_edges")

    def __init__(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if indptr.shape != (num_vertices + 1,):
            raise GraphError("indptr must have length num_vertices + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError("indptr must start at 0 and end at num_edges")
        degrees = np.diff(indptr)
        if degrees.size and degrees.min() < 0:
            raise GraphError("indptr must be non-decreasing")
        if weights.shape != indices.shape:
            raise GraphError("weights must be parallel to indices")
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphError("edge target out of range")
        self.num_vertices = int(num_vertices)
        # Read-only views: a CSR is shared (by the plan, across queries
        # and threads) and never changes after construction.
        self.indptr = read_only(indptr)
        self.indices = read_only(indices)
        self.weights = read_only(weights)
        #: The largest out-degree.
        self.max_degree = int(degrees.max()) if degrees.size else 0
        #: The in-edge view, once :meth:`index_in_edges` built it.
        self.in_edges: Optional[InEdges] = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        num_vertices: int,
        weights: Optional[np.ndarray] = None,
        weight_fn: Optional[WeightFn] = None,
    ) -> "CSRGraph":
        """Build a CSR from parallel edge arrays.

        Exactly one of ``weights`` (explicit array) or ``weight_fn``
        (deterministic function of the endpoints) may be given; with
        neither, all weights are 1.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise GraphError("sources and targets must have the same shape")
        if sources.size and (sources.min() < 0 or sources.max() >= num_vertices):
            raise GraphError("edge source out of range")
        if weights is not None and weight_fn is not None:
            raise GraphError("pass either weights or weight_fn, not both")
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        targets = targets[order]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)[order]
        else:
            fn = weight_fn if weight_fn is not None else UnitWeights()
            weights = fn(sources, targets)
        return cls._from_grouped(sources, targets, weights, num_vertices)

    @classmethod
    def from_edge_set(
        cls,
        edges: EdgeSet,
        num_vertices: int,
        weight_fn: Optional[WeightFn] = None,
    ) -> "CSRGraph":
        """Build a CSR from an :class:`EdgeSet` (weights from ``weight_fn``).

        An edge set's codes are sorted, so its edges arrive grouped by
        source already: no sort, no reordering copies.
        """
        sources, targets = edges.arrays()
        if sources.size and (sources[0] < 0 or sources[-1] >= num_vertices):
            raise GraphError("edge source out of range")
        fn = weight_fn if weight_fn is not None else UnitWeights()
        return cls._from_grouped(sources, targets, fn(sources, targets),
                                 num_vertices)

    @classmethod
    def _from_grouped(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        num_vertices: int,
    ) -> "CSRGraph":
        """A CSR from edge arrays whose sources are non-decreasing."""
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
        return cls(num_vertices, indptr, targets, weights)

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        return cls(
            num_vertices,
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    # -- basic accessors --------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (indptr + indices + weights)."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes)

    def out_degree(self, vertex: int) -> int:
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` views of one vertex's out-edges."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as flat ``(sources, targets, weights)`` arrays."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        return sources, self.indices.copy(), self.weights.copy()

    def edge_set(self) -> EdgeSet:
        """The set of edges (weights dropped)."""
        sources, targets, _ = self.edge_arrays()
        return EdgeSet.from_arrays(sources, targets)

    # -- engine protocol --------------------------------------------------
    def gather(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat out-edges of the frontier: ``(sources, targets, weights)``.

        ``frontier`` is an array of vertex ids; the result has one entry
        per out-edge of a frontier vertex, with sources repeated.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        starts = self.indptr[frontier]
        degrees = self.indptr[frontier + 1] - starts
        slots = expand_ranges(starts, degrees)
        return np.repeat(frontier, degrees), self.indices[slots], self.weights[slots]

    def gather_in(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat in-edges of the frontier: ``(origins, targets, weights)``,
        in CSR order.

        A scan, not a transpose: one vertex mask picks the slots of
        ``indices`` that land in the frontier, and ``searchsorted`` on
        ``indptr`` names their origins (a transpose costs a full sort of
        the edges; a kept origin array, ``E`` more integers).
        """
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[np.asarray(frontier, dtype=np.int64)] = True
        slots = np.flatnonzero(mask[self.indices])
        origins = np.searchsorted(self.indptr, slots, "right") - 1
        return origins, self.indices[slots], self.weights[slots]

    def index_in_edges(self) -> "CSRGraph":
        """Build :attr:`in_edges` (once) and return the graph.

        A stable argsort of the targets, on ``uint16`` keys (a radix
        sort) while the vertex ids fit them.  Build it before the graph
        is shared: nothing else about a CSR ever changes.
        """
        if self.in_edges is None:
            keys = (self.indices.astype(np.uint16)
                    if self.num_vertices <= 1 << 16 else self.indices)
            order = np.argsort(keys, kind="stable")
            counts = np.bincount(self.indices, minlength=self.num_vertices)
            targets = np.flatnonzero(counts)
            bounds = np.zeros(targets.size + 1, dtype=np.int64)
            np.cumsum(counts[targets], out=bounds[1:])
            origins = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                                self.degrees())
            self.in_edges = InEdges(*map(read_only, (
                origins[order], self.weights[order], targets, bounds)))
        return self

    # -- derived graphs ---------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """Reverse every edge (weights preserved)."""
        sources, targets, weights = self.edge_arrays()
        return CSRGraph.from_edges(
            targets, sources, self.num_vertices, weights=weights
        )

    def __repr__(self) -> str:
        return f"CSRGraph(V={self.num_vertices}, E={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def sorted_copy(self) -> "CSRGraph":
        """Copy with each adjacency row sorted by target id."""
        src, dst, w = self.edge_arrays()
        code = encode_edges(src, dst)
        order = np.argsort(code, kind="stable")
        src2, dst2 = decode_edges(code[order])
        return CSRGraph.from_edges(src2, dst2, self.num_vertices, weights=w[order])
