"""Tests for the push engine (static computation, modes, counters)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_algorithm
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.mutable import MutableGraph
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import (
    DENSE_SHARE,
    EngineCounters,
    VertexState,
    push_until_stable,
    relax,
    seed_edges,
    static_compute,
)
from tests.conftest import ALL_ALGORITHMS, assert_values_equal
from tests.helpers import reference_compute_edgeset, reference_sync_round
from tests.strategies import edge_pairs, sources_for

WF = HashWeights(max_weight=8, seed=7)


class TestStaticCompute:
    def test_bfs_on_diamond(self, diamond_csr):
        state = static_compute(diamond_csr, get_algorithm("BFS"), source=0)
        assert state.values.tolist() == [0.0, 1.0, 1.0, 2.0, 3.0, 4.0]

    def test_unreachable_vertices_stay_worst(self, diamond_csr):
        alg = get_algorithm("SSSP")
        state = static_compute(diamond_csr, alg, source=5)
        assert state.values[5] == 0.0
        assert np.all(np.isinf(state.values[:5]))

    def test_matches_reference(self, diamond_edges, algorithm):
        got = static_compute(
            CSRGraph.from_edge_set(diamond_edges, 6, weight_fn=WF),
            algorithm, source=0,
        ).values
        want = reference_compute_edgeset(diamond_edges, 6, algorithm, 0, WF)
        assert_values_equal(got, want, algorithm.name)

    def test_parent_tracking_consistency(self, diamond_csr):
        alg = get_algorithm("SSSP")
        state = static_compute(diamond_csr, alg, source=0, track_parents=True)
        parents = state.parents
        assert parents is not None
        assert parents[0] == -1  # source has no parent
        # Every reached non-source vertex's value is derivable from its
        # parent via the edge function.
        for v in range(1, 6):
            if np.isinf(state.values[v]):
                assert parents[v] == -1
                continue
            u = parents[v]
            targets, weights = diamond_csr.neighbors(u)
            idx = np.flatnonzero(targets == v)
            assert idx.size == 1
            prop = alg.proposals(
                np.array([state.values[u]]), np.array([weights[idx[0]]])
            )[0]
            assert prop == state.values[v]

    def test_counters_populated(self, diamond_csr):
        counters = EngineCounters()
        static_compute(diamond_csr, get_algorithm("BFS"), 0, counters=counters)
        assert counters.edges_relaxed > 0
        assert counters.iterations > 0
        assert counters.vertices_updated >= 5

    def test_cycle_convergence(self):
        edges = EdgeSet.from_pairs([(0, 1), (1, 2), (2, 0), (2, 1)])
        g = CSRGraph.from_edge_set(edges, 3, weight_fn=WF)
        for name in ALL_ALGORITHMS:
            alg = get_algorithm(name)
            got = static_compute(g, alg, 0).values
            want = reference_compute_edgeset(edges, 3, alg, 0, WF)
            assert_values_equal(got, want, name)

    def test_two_cycle_is_stable(self):
        """A 2-cycle must converge, not ping-pong."""
        g = CSRGraph.from_edge_set(EdgeSet.from_pairs([(0, 1), (1, 0)]), 2)
        state = static_compute(g, get_algorithm("BFS"), 0)
        assert state.values.tolist() == [0.0, 1.0]


class TestModes:
    @pytest.mark.parametrize("mode", ["sync", "async", "auto"])
    def test_modes_agree(self, mode, algorithm, small_rmat):
        g = CSRGraph.from_edge_set(small_rmat, 256, weight_fn=WF)
        sync_state = static_compute(g, algorithm, 3, mode="sync")
        other = static_compute(g, algorithm, 3, mode=mode)
        assert_values_equal(other.values, sync_state.values, f"{algorithm.name}/{mode}")

    def test_unknown_mode_rejected(self, diamond_csr):
        state = VertexState.fresh(get_algorithm("BFS"), 6, 0)
        with pytest.raises(EngineError):
            push_until_stable(
                diamond_csr, get_algorithm("BFS"), state,
                np.array([0]), mode="warp",
            )

    def test_async_parent_tracking(self, diamond_csr):
        alg = get_algorithm("SSSP")
        sync = static_compute(diamond_csr, alg, 0, track_parents=True, mode="sync")
        asy = static_compute(diamond_csr, alg, 0, track_parents=True, mode="async")
        assert_values_equal(asy.values, sync.values, "async parents")
        # Parents may differ on ties but must be valid (value-derivable).
        for v in range(6):
            if asy.parents[v] >= 0:
                u = int(asy.parents[v])
                targets, weights = diamond_csr.neighbors(u)
                idx = np.flatnonzero(targets == v)
                prop = alg.proposals(
                    np.array([asy.values[u]]), np.array([weights[idx[0]]])
                )[0]
                assert prop == asy.values[v]


class TestSeedEdges:
    def test_seed_improves_and_reports(self):
        alg = get_algorithm("SSSP")
        g = CSRGraph.from_edge_set(EdgeSet.from_pairs([(0, 1)]), 3, weight_fn=WF)
        state = static_compute(g, alg, 0)
        # New edge (0, 2): seeding it should improve vertex 2.
        changed = seed_edges(
            alg, state, np.array([0]), np.array([2]), np.array([4.0])
        )
        assert changed.tolist() == [2]
        assert state.values[2] == 4.0

    def test_seed_no_improvement(self):
        alg = get_algorithm("SSSP")
        g = CSRGraph.from_edge_set(EdgeSet.from_pairs([(0, 1)]), 2, weight_fn=WF)
        state = static_compute(g, alg, 0)
        before = state.values.copy()
        changed = seed_edges(
            alg, state, np.array([1]), np.array([0]), np.array([5.0])
        )
        assert changed.size == 0
        assert np.array_equal(state.values, before)

    def test_seed_empty(self):
        alg = get_algorithm("BFS")
        state = VertexState.fresh(alg, 3, 0)
        changed = seed_edges(
            alg, state, np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([]),
        )
        assert changed.size == 0


class TestVertexState:
    def test_fresh(self, algorithm):
        state = VertexState.fresh(algorithm, 4, 1, track_parents=True)
        assert state.values[1] == algorithm.source_value
        assert state.parents.tolist() == [-1, -1, -1, -1]
        assert state.source == 1

    def test_copy_is_deep(self, algorithm):
        state = VertexState.fresh(algorithm, 4, 0, track_parents=True)
        clone = state.copy()
        clone.values[2] = 42.0
        clone.parents[2] = 1
        assert state.values[2] == algorithm.worst
        assert state.parents[2] == -1


@settings(max_examples=40, deadline=None)
@given(edge_pairs(max_edges=30), sources_for(12))
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_static_matches_reference_random(name, ab, source):
    n, pairs = ab
    source = source % n
    edges = EdgeSet.from_pairs(pairs)
    alg = get_algorithm(name)
    g = CSRGraph.from_edge_set(edges, n, weight_fn=WF)
    got = static_compute(g, alg, source, mode="auto").values
    want = reference_compute_edgeset(edges, n, alg, source, WF)
    assert_values_equal(got, want, name)


# -- the relax step against the rounds it replaced --------------------------------
#
# ``reference_sync_round`` (tests/helpers.py, shared with the oracle) and
# the function below are the bodies of ``_sync_round`` and ``seed_edges``
# as they stood before the shared relax step (scatter every proposal,
# diff against a copy, ``np.unique``), kept verbatim as the reference.

def _reference_seed_edges(alg, state, sources, targets, weights, counters=None):
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.size == 0:
        return np.empty(0, dtype=np.int64)
    proposals = alg.proposals(state.values[sources], np.asarray(weights, dtype=np.float64))
    before = state.values[targets].copy()
    alg.reduce_at(state.values, targets, proposals)
    changed_mask = alg.better(state.values[targets], before)
    if counters is not None:
        counters.edges_relaxed += int(sources.size)
    if state.parents is not None:
        winners = changed_mask & (proposals == state.values[targets])
        state.parents[targets[winners]] = sources[winners]
    changed = np.unique(targets[changed_mask])
    if counters is not None:
        counters.vertices_updated += int(changed.size)
    return changed


GRAPH_KINDS = ("csr", "overlay", "mutable")
#: Finite cells sit on a coarse grid so proposals tie often.
_CELLS = st.sampled_from([np.inf, -np.inf, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7.0])


@st.composite
def round_cases(draw):
    """``(n, edges, split, values, parents, frontier)``: a multigraph with
    parallel edges and self-loops (its second part goes to the overlay's
    Δ / the mutable graph's added batch), an arbitrary — not converged —
    value vector with ±inf and −0.0 cells, and any frontier (most
    vertices have no path to it)."""
    n = draw(st.integers(2, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex, st.sampled_from([1.0, 2.0, 3.0, 5.0])),
        max_size=40))
    split = draw(st.integers(0, len(edges)))
    values = np.array(draw(st.lists(_CELLS, min_size=n, max_size=n)))
    parents = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)),
                       dtype=np.int64)
    frontier = np.array(sorted(draw(st.sets(vertex))), dtype=np.int64)
    return n, edges, split, values, parents, frontier


def _csr(edges, n):
    src, dst, w = (np.array(column) for column in zip(*edges)) if edges else ([], [], [])
    return CSRGraph.from_edges(src, dst, n, weights=np.asarray(w, dtype=np.float64))


def _graph(kind, n, edges, split):
    if kind == "csr":
        return _csr(edges, n)
    if kind == "overlay":
        return OverlayGraph(_csr(edges[:split], n), (_csr(edges[split:], n),))
    graph = MutableGraph(_csr(edges[:split], n), weight_fn=WF)
    present = {(u, v) for u, v, _ in edges[:split]}
    graph.add_batch(EdgeSet.from_pairs(
        sorted({(u, v) for u, v, _ in edges[split:]} - present)))
    return graph


def _assert_same_step(new, ref, new_out, ref_out, new_counters, ref_counters):
    assert np.array_equal(new.values, ref.values)
    assert (new.parents is None) == (ref.parents is None)
    if ref.parents is not None:
        assert np.array_equal(new.parents, ref.parents)
    assert np.array_equal(new_out, ref_out)
    assert new_counters == ref_counters


@settings(max_examples=60, deadline=None)
@given(round_cases())
@pytest.mark.parametrize("track_parents", [False, True])
@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_round_matches_reference_round(name, kind, track_parents, case):
    n, edges, split, values, parents, frontier = case
    alg = get_algorithm(name)
    graph = _graph(kind, n, edges, split)
    ref = VertexState(values.copy(), parents.copy() if track_parents else None)
    new = ref.copy()
    ref_counters, new_counters = EngineCounters(), EngineCounters()
    ref_out = reference_sync_round(graph, alg, ref, frontier, ref_counters)
    mask = np.zeros(n, dtype=bool)
    new_out = relax(alg, new, *graph.gather(frontier), new_counters, mask)
    _assert_same_step(new, ref, new_out, ref_out, new_counters, ref_counters)
    assert not mask.any()


@settings(max_examples=60, deadline=None)
@given(round_cases())
@pytest.mark.parametrize("track_parents", [False, True])
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_seed_edges_matches_reference(name, track_parents, case):
    n, edges, _, values, parents, _ = case
    alg = get_algorithm(name)
    batch = [np.array(column) for column in zip(*edges)] if edges else [[], [], []]
    ref = VertexState(values.copy(), parents.copy() if track_parents else None)
    new = ref.copy()
    ref_counters, new_counters = EngineCounters(), EngineCounters()
    ref_out = _reference_seed_edges(alg, ref, *batch, counters=ref_counters)
    new_out = seed_edges(alg, new, *batch, counters=new_counters)
    _assert_same_step(new, ref, new_out, ref_out, new_counters, ref_counters)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestNanProposalNeverWritten:
    """``ufunc.at`` propagates NaN; a NaN proposal is not *better*, so
    the filter drops it before the reduce."""

    def test_max_algorithm(self):
        alg = get_algorithm("Viterbi")
        state = VertexState(np.array([1.0, 0.5, 0.0]))
        changed = seed_edges(alg, state, [2], [1], [0.0])  # 0 / 0
        assert changed.size == 0
        assert state.values.tolist() == [1.0, 0.5, 0.0]

    def test_min_algorithm(self):
        alg = get_algorithm("SSSP")
        state = VertexState(np.array([0.0, 1.0, np.inf]))
        changed = seed_edges(alg, state, [2], [1], [-np.inf])  # inf - inf
        assert changed.size == 0
        assert state.values.tolist() == [0.0, 1.0, np.inf]

    def test_nan_beside_an_improving_edge(self):
        alg = get_algorithm("Viterbi")
        state = VertexState(np.array([1.0, 0.25, 0.0]),
                            np.full(3, -1, dtype=np.int64))
        changed = seed_edges(alg, state, [2, 0], [1, 1], [0.0, 2.0])
        assert changed.tolist() == [1]
        assert state.values.tolist() == [1.0, 0.5, 0.0]
        assert state.parents.tolist() == [-1, 0, -1]


class TestFrontierMask:
    def test_consecutive_pushes_with_disjoint_frontiers(self, algorithm):
        """Two components, pushed one after the other on one state, each
        pinned just before its own push (so every push starts from the
        engine's precondition): the second push sees nothing of the
        first one's frontier.

        Pushed together on the bare graph, the second round's frontier
        {1, 4} owns 3 of the 7 edges and takes a dense round, so only
        values and ``vertices_updated`` add up; with edges out of the
        unreachable vertices 7-9 no frontier can own ``DENSE_SHARE`` of
        the graph, and ``edges_relaxed`` adds up too."""
        pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (4, 3)]
        padding = [(u, v) for u in (7, 8, 9) for v in range(7)]
        for extra in ([], padding):
            g = CSRGraph.from_edge_set(EdgeSet.from_pairs(pairs + extra), 10,
                                       weight_fn=WF)
            state = VertexState.fresh(algorithm, 10, 0)
            together = state.copy()
            together.values[3] = algorithm.source_value
            first, second, both = (EngineCounters() for _ in range(3))
            push_until_stable(g, algorithm, state, [0], counters=first, mode="sync")
            assert np.all(state.values[3:] == algorithm.worst)
            state.values[3] = algorithm.source_value
            push_until_stable(g, algorithm, state, [3], counters=second, mode="sync")
            push_until_stable(g, algorithm, together, [0, 3], counters=both,
                              mode="sync")
            assert_values_equal(state.values, together.values, algorithm.name)
            assert (first.vertices_updated + second.vertices_updated
                    == both.vertices_updated)
            apart = first.edges_relaxed + second.edges_relaxed
            if len(pairs) <= DENSE_SHARE * g.num_edges:
                assert apart == both.edges_relaxed
            else:
                assert apart < both.edges_relaxed

    def test_frontier_is_normalised(self, diamond_csr):
        alg = get_algorithm("SSSP")
        want = static_compute(diamond_csr, alg, 0)
        state = VertexState.fresh(alg, 6, 0)
        counters, once = EngineCounters(), EngineCounters()
        push_until_stable(diamond_csr, alg, state, [0, 0, 0], counters=counters,
                          mode="sync")
        static_compute(diamond_csr, alg, 0, counters=once)
        assert_values_equal(state.values, want.values, "duplicated frontier")
        assert counters == once
