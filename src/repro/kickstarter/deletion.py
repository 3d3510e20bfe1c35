"""Trim-and-repair handling of edge deletions (KickStarter's approach).

For monotonic algorithms a deletion can invalidate results: a vertex
whose value was *derived through* the deleted edge may now hold an
unreachably-good value.  Following KickStarter, the engine tags the
possibly-invalidated region, resets it, and recomputes it from the
edges crossing in from untagged vertices:

1. **Tag** vertices directly supported by a deleted edge.
2. **Cascade** tags through the graph: a vertex whose value is
   derivable from a tagged vertex is tagged too.
3. **Reset** tagged vertices to the algorithm's worst value.
4. **Repair**: re-seed the trimmed region from the in-edges crossing
   into it from untagged vertices, then push to a fixpoint.

Three tagging policies are provided:

* ``"hybrid"`` (default, closest to KickStarter's *trimmed
  approximations*): a vertex is directly tagged when a deleted edge
  **could** have produced its current value (the edge function
  matches — conservative, since an equal alternative support may
  exist), and tags cascade down the maintained dependence tree.  The
  over-approximation is bounded by the batch's dependence subtrees,
  which is what makes deletions ~3x costlier than additions (Figure 1)
  without pathological blow-up.
* ``"parent"``: exact dependence tracking end to end (minimal
  trimming; requires ``track_parents``).
* ``"support"``: value-matching for the cascade as well.  Maximally
  conservative; on algorithms with heavily tied values (SSWP/SSNP)
  coincidental matches can tag very large regions, so this policy is
  provided for study rather than as the baseline.

Under every policy the result equals a from-scratch recomputation: the
trimmed region is re-derived solely from still-valid vertices, and
cycles inside it cannot bootstrap values out of nothing.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import EngineError
from repro.graph.edgeset import EdgeSet
from repro.kickstarter.engine import (
    EngineCounters,
    VertexState,
    seed_edges,
    stabilise,
)

__all__ = ["BidirectionalGraph", "trim_and_repair"]


class BidirectionalGraph(Protocol):
    """Graph protocol for deletion repair: out-edge and in-edge gathers."""

    num_vertices: int

    def gather(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-edges of the frontier."""

    def gather_in(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-edges of the frontier, as ``(origins, frontier_vertices, weights)``."""

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """Out-edges of one vertex."""


def _tag_direct_parent(
    state: VertexState, deleted: EdgeSet, num_vertices: int
) -> np.ndarray:
    """Direct tags, exact: the deleted edge is the recorded parent edge."""
    parents = state.parents
    tagged = np.zeros(num_vertices, dtype=bool)
    src, dst = deleted.arrays()
    if src.size:
        direct = parents[dst] == src
        tagged[dst[direct]] = True
    tagged[state.source] = False
    return tagged


def _tag_direct_support(
    alg: MonotonicAlgorithm,
    state: VertexState,
    deleted: EdgeSet,
    deleted_weights: Optional[np.ndarray],
    num_vertices: int,
    counters: Optional[EngineCounters],
) -> np.ndarray:
    """Direct tags, conservative: the deleted edge *matches* the value."""
    tagged = np.zeros(num_vertices, dtype=bool)
    src, dst = deleted.arrays()
    if src.size:
        if deleted_weights is None:
            # Without the deleted edges' weights the edge function cannot
            # be evaluated; tag every deletion target.  Over-tagging is
            # safe — repair recomputes the region exactly.
            tagged[dst] = True
        else:
            proposals = alg.proposals(state.values[src], deleted_weights)
            supported = proposals == state.values[dst]
            tagged[dst[supported]] = True
            if counters is not None:
                counters.edges_relaxed += int(src.size)
    tagged[state.source] = False
    return tagged


def _cascade_parent(
    state: VertexState,
    tagged: np.ndarray,
    counters: Optional[EngineCounters],
) -> np.ndarray:
    """Cascade tags down the dependence tree (parent pointers)."""
    parents = state.parents
    has_parent = parents >= 0
    while True:
        if counters is not None:
            counters.trim_rounds += 1
        parent_tagged = np.zeros_like(tagged)
        parent_tagged[has_parent] = tagged[parents[has_parent]]
        fresh = parent_tagged & ~tagged
        fresh[state.source] = False
        if not fresh.any():
            return tagged
        tagged |= fresh


def _cascade_support(
    graph: BidirectionalGraph,
    alg: MonotonicAlgorithm,
    state: VertexState,
    tagged: np.ndarray,
    counters: Optional[EngineCounters],
) -> np.ndarray:
    """Cascade tags by value matching along out-edges.

    A vertex is tagged when an edge from an already-tagged vertex
    *matches* its current value under the edge function — whether or
    not other support exists.
    """
    frontier = np.flatnonzero(tagged)
    while frontier.size:
        if counters is not None:
            counters.trim_rounds += 1
        t_src, t_dst, t_w = graph.gather(frontier)
        if counters is not None:
            counters.edges_relaxed += int(t_src.size)
        if t_src.size == 0:
            break
        proposals = alg.proposals(state.values[t_src], t_w)
        supported = (proposals == state.values[t_dst]) & ~tagged[t_dst]
        fresh = np.unique(t_dst[supported])
        fresh = fresh[fresh != state.source]
        if fresh.size == 0:
            break
        tagged[fresh] = True
        frontier = fresh
    return tagged


def trim_and_repair(
    graph: BidirectionalGraph,
    alg: MonotonicAlgorithm,
    state: VertexState,
    deleted: EdgeSet,
    counters: Optional[EngineCounters] = None,
    mode: str = "auto",
    tagging: str = "hybrid",
    deleted_weights: Optional[np.ndarray] = None,
) -> int:
    """Incrementally incorporate deleted edges into converged query state.

    ``graph`` must be the graph *after* the deletions.  Returns the
    number of vertices trimmed.  ``deleted_weights`` (parallel to
    ``deleted.arrays()``) lets value-based tagging evaluate the deleted
    edges' edge functions; without it, every deletion target is tagged.
    """
    if tagging not in ("hybrid", "support", "parent"):
        raise EngineError(f"unknown tagging policy {tagging!r}")
    if len(deleted) == 0:
        return 0
    if tagging in ("hybrid", "parent") and state.parents is None:
        raise EngineError(f"{tagging!r} tagging requires parent tracking")
    n = graph.num_vertices
    if tagging == "parent":
        tagged = _tag_direct_parent(state, deleted, n)
        tagged = _cascade_parent(state, tagged, counters)
    elif tagging == "hybrid":
        tagged = _tag_direct_support(
            alg, state, deleted, deleted_weights, n, counters
        )
        tagged = _cascade_parent(state, tagged, counters)
    else:
        tagged = _tag_direct_support(
            alg, state, deleted, deleted_weights, n, counters
        )
        tagged = _cascade_support(graph, alg, state, tagged, counters)
    if not tagged.any():
        return 0
    trimmed = np.flatnonzero(tagged)
    if counters is not None:
        counters.vertices_trimmed += int(trimmed.size)

    state.values[trimmed] = alg.worst
    if state.parents is not None:
        state.parents[trimmed] = -1

    # Seed the trimmed region from in-edges whose origin is untagged.
    origins, targets, weights = graph.gather_in(trimmed)
    valid = ~tagged[origins]
    frontier = seed_edges(alg, state, origins[valid], targets[valid],
                          weights[valid], counters=counters)
    stabilise(graph, alg, state, frontier, counters, mode)
    return int(trimmed.size)
