"""Shared test helpers.

The reference implementations now live in the *public*
:mod:`repro.testing` module (so downstream users can test custom
algorithms against the same oracle); this module re-exports them for
the test suite.

It also keeps the sparse sync round as it stood before the engine's
shared relax step (scatter every proposal, diff against a copy,
``np.unique``), verbatim, and a frontier fixpoint on it
(:func:`reference_static_compute`): the reference the engine's rounds
are checked against, and the loop :func:`tests.conftest.oracle_values`
converges with.  It gathers the frontier's out-edges every round,
however many there are — no dense round, no async worklist.
"""

import numpy as np

from repro.kickstarter.engine import VertexState
from repro.testing import (  # noqa: F401
    assert_monotonic,
    assert_values_equal,
    reference_compute,
    reference_compute_edgeset,
)


def reference_sync_round(graph, alg, state, frontier, counters):
    src, dst, w = graph.gather(frontier)
    if src.size == 0:
        return np.empty(0, dtype=np.int64)
    proposals = alg.proposals(state.values[src], w)
    before = state.values[dst].copy()
    alg.reduce_at(state.values, dst, proposals)
    changed_mask = alg.better(state.values[dst], before)
    if counters is not None:
        counters.edges_relaxed += int(src.size)
    if not changed_mask.any():
        return np.empty(0, dtype=np.int64)
    if state.parents is not None:
        winners = changed_mask & (proposals == state.values[dst])
        state.parents[dst[winners]] = src[winners]
    next_frontier = np.unique(dst[changed_mask])
    if counters is not None:
        counters.vertices_updated += int(next_frontier.size)
    return next_frontier


def reference_static_compute(graph, alg, source, track_parents=False, counters=None):
    """Converge from ``source`` with :func:`reference_sync_round` alone:
    sparse rounds only, one per ``iterations``."""
    state = VertexState.fresh(alg, graph.num_vertices, source, track_parents)
    frontier = np.asarray([source], dtype=np.int64)
    while frontier.size:
        if counters is not None:
            counters.iterations += 1
        frontier = reference_sync_round(graph, alg, state, frontier, counters)
    return state
