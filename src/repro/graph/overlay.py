"""Mutation-free snapshot representation: base CSR + Δ-batch CSRs.

This is the paper's key systems idea (§2.2 and §4.1): the CommonGraph
is stored once in CSR form and is *never* modified.  Each batch of edge
additions is stored as its own small CSR; a snapshot (or intermediate
common graph) is represented by the base plus the set of Δ CSRs on its
path through the Triangular Grid.  "Adding" a batch is an O(1)
composition, versus the O(E) compaction a mutable CSR pays.

:class:`OverlayGraph` is persistent: :meth:`with_delta` returns a new
overlay sharing all existing component CSRs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet

__all__ = ["OverlayGraph"]


def _joined(parts: Sequence[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """Per-component parallel-array tuples concatenated field by field.
    Usually one component holds all of a frontier's edges: its arrays
    are returned as they are, uncopied (the base's when none has any)."""
    parts = [part for part in parts if part[0].size] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


class OverlayGraph:
    """A graph composed of a base CSR and zero or more delta CSRs.

    Implements the same ``gather`` protocol as :class:`CSRGraph`, so the
    push engines are agnostic to which representation they traverse.
    The engine protocol (``gather``, ``neighbors``) asks only that of
    the base: the live tip's repair passes the tip's one-row
    :class:`~repro.graph.stacked.StackedGraph` there, which the
    materialising helpers (``edge_set``, ``degrees``, ``flatten``) do
    not serve.
    """

    __slots__ = ("base", "deltas")

    def __init__(self, base: CSRGraph, deltas: Sequence[CSRGraph] = ()) -> None:
        for d in deltas:
            if d.num_vertices != base.num_vertices:
                raise GraphError("delta vertex count differs from base")
        self.base = base
        self.deltas: Tuple[CSRGraph, ...] = tuple(deltas)

    # -- composition ------------------------------------------------------
    def with_delta(self, delta: CSRGraph) -> "OverlayGraph":
        """Return a new overlay with ``delta`` attached (no copying)."""
        if delta.num_vertices != self.base.num_vertices:
            raise GraphError("delta vertex count differs from base")
        return OverlayGraph(self.base, self.deltas + (delta,))

    @property
    def components(self) -> Tuple[CSRGraph, ...]:
        return (self.base,) + self.deltas

    # -- accessors ----------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_edges(self) -> int:
        return sum(c.num_edges for c in self.components)

    def edge_set(self) -> EdgeSet:
        """Union of all component edge sets."""
        result = self.base.edge_set()
        for d in self.deltas:
            result = result | d.edge_set()
        return result

    def degrees(self) -> np.ndarray:
        total = self.base.degrees().copy()
        for d in self.deltas:
            total += d.degrees()
        return total

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of a vertex's out-edges across components."""
        return _joined([c.neighbors(vertex) for c in self.components])

    # -- engine protocol ----------------------------------------------------
    def gather(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat out-edges of the frontier across all components."""
        return _joined([c.gather(frontier) for c in self.components])

    def flatten(self) -> CSRGraph:
        """Materialise a single CSR equal to this overlay (for testing)."""
        srcs, dsts, ws = [], [], []
        for component in self.components:
            s, d, w = component.edge_arrays()
            srcs.append(s)
            dsts.append(d)
            ws.append(w)
        return CSRGraph.from_edges(
            np.concatenate(srcs),
            np.concatenate(dsts),
            self.num_vertices,
            weights=np.concatenate(ws),
        )

    def __repr__(self) -> str:
        return (
            f"OverlayGraph(V={self.num_vertices}, E={self.num_edges}, "
            f"deltas={len(self.deltas)})"
        )
