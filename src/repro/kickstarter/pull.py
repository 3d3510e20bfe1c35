"""Pull-based execution: the dual of the push engine.

Push iterates *out*-edges of changed vertices; pull iterates *in*-edges
of candidate vertices and recomputes their value from all proposals.
Real graph engines (Ligra and its descendants, including KickStarter)
switch between the two by frontier density — push wins on sparse
frontiers, pull on dense ones, because a pull round writes each vertex
once with no atomics.

This module provides a faithful pull engine over the transpose CSR plus
a density-switching ``direction="auto"`` wrapper.  It is exact for the
same reason push is: each pull assigns a vertex the best proposal over
its full in-neighbourhood, and rounds repeat until no value changes.
A pull round differs from a push round only in which edges it gathers:
both hand them to :func:`repro.kickstarter.engine.relax`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.kickstarter.engine import (
    EngineCounters,
    VertexState,
    _distinct,
    relax,
)

__all__ = ["pull_until_stable", "static_compute_pull", "DENSE_FRACTION"]

#: Frontier density above which ``direction="auto"`` switches to pull.
DENSE_FRACTION = 0.35


def _pull_step(
    graph: CSRGraph,
    transpose: CSRGraph,
    alg: MonotonicAlgorithm,
    state: VertexState,
    changed: np.ndarray,
    counters: Optional[EngineCounters],
    mask: np.ndarray,
) -> np.ndarray:
    """Recompute the out-neighbours of ``changed`` — the only vertices
    whose values can improve — from their in-edges; returns the changed set."""
    candidates = _distinct(graph.gather(changed)[1], mask)
    # In the transpose, row v holds v's in-edge origins, so a gather
    # returns (pull targets, origins, weights) directly.
    targets, origins, weights = transpose.gather(candidates)
    return relax(alg, state, origins, targets, weights, counters, mask)


def pull_until_stable(
    graph: CSRGraph,
    alg: MonotonicAlgorithm,
    state: VertexState,
    frontier: np.ndarray,
    transpose: Optional[CSRGraph] = None,
    counters: Optional[EngineCounters] = None,
) -> None:
    """Propagate improvements from ``frontier`` using pull rounds."""
    if transpose is None:
        transpose = graph.transpose()
    mask = np.zeros(graph.num_vertices, dtype=bool)
    changed = _distinct(np.asarray(frontier, dtype=np.int64), mask)
    while changed.size:
        if counters is not None:
            counters.iterations += 1
        changed = _pull_step(graph, transpose, alg, state, changed, counters,
                             mask)


def static_compute_pull(
    graph: CSRGraph,
    alg: MonotonicAlgorithm,
    source: int,
    track_parents: bool = False,
    counters: Optional[EngineCounters] = None,
    transpose: Optional[CSRGraph] = None,
    direction: str = "pull",
) -> VertexState:
    """Evaluate a query from scratch with pull (or density-auto) rounds.

    ``direction="auto"`` starts in push (sparse frontier) and switches
    to pull when the frontier covers more than :data:`DENSE_FRACTION`
    of the vertices — the classic Ligra direction optimisation.
    """
    if direction not in ("pull", "auto"):
        raise EngineError(f"unknown direction {direction!r}")
    if transpose is None:
        transpose = graph.transpose()
    state = VertexState.fresh(alg, graph.num_vertices, source, track_parents)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    changed = np.asarray([source], dtype=np.int64)
    while changed.size:
        if counters is not None:
            counters.iterations += 1
        dense = changed.size > DENSE_FRACTION * graph.num_vertices
        if direction == "pull" or dense:
            changed = _pull_step(graph, transpose, alg, state, changed,
                                 counters, mask)
        else:
            changed = relax(alg, state, *graph.gather(changed), counters, mask)
    return state
