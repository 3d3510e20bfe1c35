"""Graph arrays are read-only from construction on.

A decomposition shares its ``EdgeSet``\\ s between snapshots and the plan
shares one common CSR (and its in-edge view) across queries and
threads, so nothing may write to them once built: a write through any
of these arrays raises ``ValueError``.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.stacked import IntervalDelta


def _csr():
    return CSRGraph.from_edges(np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]),
                               3, weights=np.array([1.0, 2.0, 3.0, 4.0]))


def _interval_delta():
    edges = EdgeSet.from_pairs([(0, 1), (1, 2)])
    snapshots = [edges, EdgeSet.from_pairs([(0, 1)])]
    return IntervalDelta(CSRGraph.from_edge_set(edges, 3), edges, snapshots)


ARRAYS = {
    "CSRGraph.indptr": lambda: _csr().indptr,
    "CSRGraph.indices": lambda: _csr().indices,
    "CSRGraph.weights": lambda: _csr().weights,
    "EdgeSet._codes (unique)": lambda: EdgeSet(np.array([5, 3, 5]))._codes,
    "EdgeSet._codes (trusted)":
        lambda: EdgeSet(np.array([3, 5]), _trusted=True)._codes,
    "EdgeSet._codes (empty)": lambda: EdgeSet()._codes,
    "InEdges.origins": lambda: _csr().index_in_edges().in_edges.origins,
    "InEdges.weights": lambda: _csr().index_in_edges().in_edges.weights,
    "InEdges.targets": lambda: _csr().index_in_edges().in_edges.targets,
    "InEdges.bounds": lambda: _csr().index_in_edges().in_edges.bounds,
    "IntervalDelta.until": lambda: _interval_delta().until,
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_a_write_to_a_graph_array_raises(name):
    array = ARRAYS[name]()
    with pytest.raises(ValueError):
        array[...] = 0
    with pytest.raises(ValueError):
        array.sort()


def test_the_callers_buffers_stay_writeable():
    indptr = np.array([0, 1, 1], dtype=np.int64)
    indices = np.array([1], dtype=np.int64)
    weights = np.array([2.0])
    codes = np.array([7], dtype=np.int64)
    csr = CSRGraph(2, indptr, indices, weights)
    edges = EdgeSet(codes, _trusted=True)
    for array in (indptr, indices, weights, codes):
        assert array.flags.writeable
    indices[0] = 0
    assert csr.indices[0] == 0  # a view of the caller's buffer, not a copy
    assert edges.codes.base is codes
