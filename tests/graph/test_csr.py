"""Tests for repro.graph.csr."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import HashWeights
from tests.strategies import edge_pairs


def build(pairs, n, **kwargs):
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return CSRGraph.from_edges(src, dst, n, **kwargs)


class TestConstruction:
    def test_basic_shape(self):
        g = build([(0, 1), (0, 2), (2, 1)], 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.out_degree(0) == 2
        assert g.out_degree(1) == 0
        assert g.out_degree(2) == 1

    def test_empty_graph(self):
        g = CSRGraph.empty(4)
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0, 0, 0, 0]
        s, d, w = g.gather(np.array([0, 1, 2, 3]))
        assert s.size == d.size == w.size == 0

    def test_from_edge_set(self):
        es = EdgeSet.from_pairs([(0, 1), (1, 2)])
        g = CSRGraph.from_edge_set(es, 3)
        assert g.edge_set() == es

    def test_explicit_weights_follow_reorder(self):
        # Edges given out of source order; weights must stay attached.
        g = build([(1, 0), (0, 2)], 3, weights=np.array([5.0, 7.0]))
        targets, weights = g.neighbors(1)
        assert targets.tolist() == [0]
        assert weights.tolist() == [5.0]
        targets, weights = g.neighbors(0)
        assert weights.tolist() == [7.0]

    def test_weight_fn(self):
        fn = HashWeights(max_weight=9, seed=2)
        g = build([(0, 1), (2, 0)], 3, weight_fn=fn)
        s, d, w = g.edge_arrays()
        assert np.array_equal(w, fn(s, d))

    def test_from_edge_set_is_from_edges_without_the_sort(self):
        rng = np.random.default_rng(3)
        edges = EdgeSet.from_arrays(rng.integers(0, 50, 400),
                                    rng.integers(0, 50, 400))
        fn = HashWeights(max_weight=9, seed=2)
        for weight_fn in (None, fn):
            assert CSRGraph.from_edge_set(edges, 50, weight_fn=weight_fn) \
                == CSRGraph.from_edges(*edges.arrays(), 50, weight_fn=weight_fn)
        assert CSRGraph.from_edge_set(EdgeSet.empty(), 4) == CSRGraph.empty(4)
        with pytest.raises(GraphError, match="source out of range"):
            CSRGraph.from_edge_set(EdgeSet.from_pairs([(5, 0)]), 3)
        with pytest.raises(GraphError, match="target out of range"):
            CSRGraph.from_edge_set(EdgeSet.from_pairs([(0, 5)]), 3)

    def test_weights_and_weight_fn_conflict(self):
        with pytest.raises(GraphError):
            build([(0, 1)], 2, weights=np.array([1.0]), weight_fn=HashWeights())

    def test_source_out_of_range(self):
        with pytest.raises(GraphError):
            build([(5, 0)], 3)

    def test_target_out_of_range(self):
        with pytest.raises(GraphError):
            build([(0, 5)], 3)

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 2]), np.array([0]), np.array([1.0]))

    def test_ragged_weights_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(
                2, np.array([0, 1, 1]), np.array([1]), np.array([1.0, 2.0])
            )


class TestGather:
    def test_gather_matches_neighbors(self):
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)]
        g = build(pairs, 3, weight_fn=HashWeights(5, 1))
        src, dst, w = g.gather(np.array([0, 2]))
        expected = sorted(
            [(u, v) for u, v in pairs if u in (0, 2)]
        )
        assert sorted(zip(src.tolist(), dst.tolist())) == expected
        # Weights agree with per-vertex views.
        for u in (0, 2):
            targets, weights = g.neighbors(u)
            mask = src == u
            assert sorted(dst[mask].tolist()) == sorted(targets.tolist())

    def test_gather_empty_frontier(self):
        g = build([(0, 1)], 2)
        s, d, w = g.gather(np.array([], dtype=np.int64))
        assert s.size == 0

    def test_gather_isolated_vertices(self):
        g = build([(0, 1)], 4)
        s, d, _ = g.gather(np.array([2, 3]))
        assert s.size == 0

    @given(edge_pairs(max_edges=30))
    def test_gather_full_frontier_is_all_edges(self, ab):
        n, pairs = ab
        g = build(pairs, n)
        src, dst, _ = g.gather(np.arange(n))
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(pairs)

    @given(edge_pairs(max_edges=30), st.data())
    def test_gather_in_is_the_transposed_gather(self, ab, data):
        n, pairs = ab
        g = build(pairs, n, weight_fn=HashWeights(9, 4))
        frontier = np.array(data.draw(st.lists(
            st.integers(0, n - 1), unique=True, max_size=n)), dtype=np.int64)
        origins, targets, weights = g.gather_in(frontier)
        t_targets, t_origins, t_weights = g.transpose().gather(frontier)
        assert (sorted(zip(origins.tolist(), targets.tolist(),
                           weights.tolist()))
                == sorted(zip(t_origins.tolist(), t_targets.tolist(),
                              t_weights.tolist())))

    def test_gather_in_edges_with_their_weights(self):
        g = build([(0, 2), (1, 2), (2, 0), (3, 1)], 4,
                  weights=np.array([5.0, 6.0, 7.0, 8.0]))
        origins, targets, weights = g.gather_in(np.array([2, 1]))
        assert origins.tolist() == [0, 1, 3]
        assert targets.tolist() == [2, 2, 1]
        assert weights.tolist() == [5.0, 6.0, 8.0]
        assert all(a.size == 0 for a in g.gather_in(np.array([3])))


class TestInEdges:
    @given(edge_pairs(max_edges=30), st.booleans())
    def test_every_target_keeps_its_in_edges_in_csr_order(self, ab, wide):
        n, pairs = ab
        if wide:  # ids past uint16: the view sorts int64 keys
            n += 1 << 16
            pairs = pairs + [(0, n - 1), (1, n - 1)]
        g = build(pairs, n, weight_fn=HashWeights(9, 4))
        assert g.in_edges is None
        view = g.index_in_edges().in_edges
        assert g.index_in_edges().in_edges is view  # built once
        want = {}
        for u, v, w in zip(*(a.tolist() for a in g.edge_arrays())):
            want.setdefault(v, []).append((u, w))
        assert view.targets.tolist() == sorted(want)
        assert view.bounds[0] == 0 and view.bounds[-1] == g.num_edges
        for k, v in enumerate(view.targets.tolist()):
            lo, hi = view.bounds[k], view.bounds[k + 1]
            assert list(zip(view.origins[lo:hi].tolist(),
                            view.weights[lo:hi].tolist())) == want[v]

    def test_parallel_edges_keep_their_order(self):
        g = build([(2, 0), (0, 1), (2, 1), (0, 1), (1, 1)], 3,
                  weights=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        view = g.index_in_edges().in_edges
        assert view.targets.tolist() == [0, 1]
        assert view.bounds.tolist() == [0, 1, 5]
        assert view.origins.tolist() == [2, 0, 0, 1, 2]
        assert view.weights.tolist() == [1.0, 2.0, 4.0, 5.0, 3.0]


class TestDerived:
    def test_transpose_reverses_edges(self):
        g = build([(0, 1), (1, 2)], 3, weight_fn=HashWeights(9, 0))
        t = g.transpose()
        assert set(t.edge_set()) == {(1, 0), (2, 1)}
        # Weights preserved per original edge.
        s, d, w = g.edge_arrays()
        ts, td, tw = t.edge_arrays()
        orig = {(u, v): x for u, v, x in zip(s, d, w)}
        for u, v, x in zip(ts, td, tw):
            assert orig[(v, u)] == x

    def test_double_transpose_identity(self):
        g = build([(0, 1), (0, 2), (2, 1)], 3, weight_fn=HashWeights(7, 3))
        tt = g.transpose().transpose()
        assert g.edge_set() == tt.edge_set()

    def test_sorted_copy_equivalent(self):
        g = build([(2, 1), (2, 0), (0, 2)], 3, weight_fn=HashWeights(7, 3))
        sc = g.sorted_copy()
        assert sc.edge_set() == g.edge_set()
        targets, _ = sc.neighbors(2)
        assert targets.tolist() == sorted(targets.tolist())

    def test_equality(self):
        a = build([(0, 1)], 2)
        b = build([(0, 1)], 2)
        c = build([(1, 0)], 2)
        assert a == b
        assert a != c
        assert a != "x"

    def test_repr(self):
        assert "V=3" in repr(build([(0, 1)], 3))
