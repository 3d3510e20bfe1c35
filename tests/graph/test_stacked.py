"""Tests for repro.graph.stacked: the Δ of every ICG, and stacks of ICGs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.overlay import OverlayGraph
from repro.graph import stacked
from repro.graph.stacked import IntervalDelta, StackedGraph
from repro.graph.weights import HashWeights
from repro.kickstarter import engine
from repro.kickstarter.engine import VertexState, stabilise, static_compute
from tests.conftest import ALL_ALGORITHMS, assert_values_equal
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=9, seed=4)


def parts_of(evolving):
    """``(decomposition, common CSR, IntervalDelta)`` of an evolving graph."""
    decomp = CommonGraphDecomposition.from_evolving(evolving)
    touched = EdgeSet.empty()
    for surplus in decomp.surpluses:
        touched = touched | surplus
    delta = IntervalDelta(decomp.delta_csr(touched, WF), touched,
                          decomp.surpluses)
    return decomp, decomp.common_csr(WF), delta


def icg(decomp, common, node):
    """``ICG(node)`` the way the walk used to compose it: one overlay."""
    surplus = decomp.interval_surplus(*node)
    return OverlayGraph(common, (decomp.delta_csr(surplus, WF),))


def edges_of(origins, targets, weights):
    return sorted(zip(origins.tolist(), targets.tolist(), weights.tolist()))


@settings(max_examples=40, deadline=None)
@given(evolving_graphs(max_batches=5))
def test_until_says_which_icgs_hold_an_edge(eg):
    decomp, _, delta = parts_of(eg)
    n = decomp.num_snapshots
    entries = np.arange(delta.csr.num_edges)
    codes = delta.csr.edge_set().codes
    for i in range(n):
        for j in range(i, n):
            held = delta.within(entries, i, j)
            assert EdgeSet(codes[held]) == decomp.interval_surplus(i, j)
    # The membership matrix form: a column of entries against nodes.
    nodes = np.array([(i, j) for i in range(n) for j in range(i, n)])
    matrix = delta.within(entries[:, None], nodes[:, 0], nodes[:, 1])
    assert matrix.shape == (entries.size, len(nodes))
    for column, (i, j) in enumerate(nodes):
        assert np.array_equal(matrix[:, column], delta.within(entries, i, j))


def test_delta_refuses_a_csr_of_other_edges():
    edges = EdgeSet.from_pairs([(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="exactly the given edges"):
        IntervalDelta(CSRGraph.empty(3), edges, [edges])
    good = IntervalDelta(CSRGraph.from_edge_set(edges, 3), edges, [edges])
    with pytest.raises(GraphError, match="vertex count"):
        StackedGraph(CSRGraph.empty(4), good, [(0, 0)])


@settings(max_examples=40, deadline=None)
@given(evolving_graphs(max_batches=5), st.data())
def test_every_row_is_its_icg(eg, data):
    decomp, common, delta = parts_of(eg)
    n, V = decomp.num_snapshots, decomp.num_vertices
    spans = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda pair: (min(pair), max(pair)))
    nodes = data.draw(st.lists(spans, min_size=1, max_size=5), label="nodes")
    stack = StackedGraph(common, delta, nodes)
    assert stack.num_vertices == len(nodes) * V
    # Any order, any subset: the stacked gather does not rely on either.
    frontier = np.array(data.draw(st.lists(
        st.integers(0, stack.num_vertices - 1), unique=True, max_size=30),
        label="frontier"), dtype=np.int64)
    want = []
    for flat in frontier.tolist():
        row, v = divmod(flat, V)
        o, t, w = icg(decomp, common, nodes[row]).gather(np.array([v]))
        want += edges_of(o + row * V, t + row * V, w)
        targets, weights = stack.neighbors(flat)
        assert edges_of(np.full(targets.shape, flat), targets, weights) == (
            edges_of(o + row * V, t + row * V, w))
    assert edges_of(*stack.gather(frontier)) == sorted(want)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_a_spill_on_a_three_row_stack_equals_the_all_sync_result(
        small_evolving, name, monkeypatch):
    """The async worklist's spill hands ``stabilise`` an unsorted
    frontier; a round on the stack must not care."""
    alg = get_algorithm(name)
    decomp, common, delta = parts_of(small_evolving)
    V = decomp.num_vertices
    nodes = [(0, 1), (3, 3), (5, 7)]
    stack = StackedGraph(common, delta, nodes)
    source = int(common.degrees().argmax())
    frontier = np.array([row * V + source for row in range(3)])

    spills = []
    drain = engine._async_drain

    def recording(*args):
        left = drain(*args)
        spills.append(left)
        return left

    monkeypatch.setattr(engine, "_async_drain", recording)
    results = {}
    for mode in ("sync", "auto"):
        matrix = np.stack([alg.initial_values(V, source)] * 3)
        stabilise(stack, alg, VertexState(matrix.reshape(-1), source=source),
                  frontier, mode=mode)
        results[mode] = matrix
    # Three vertices start async; the hub's fan-out spills into sync.
    assert any(left.size for left in spills)
    assert any(np.any(np.diff(left) < 0) for left in spills if left.size)
    for row, node in enumerate(nodes):
        want = static_compute(icg(decomp, common, node), alg, source).values
        assert_values_equal(results["sync"][row], want, f"{name} sync {node}")
        assert_values_equal(results["auto"][row], want, f"{name} auto {node}")


@settings(max_examples=40, deadline=None)
@given(evolving_graphs(max_batches=5), st.data())
def test_pieces_are_whole_rows_that_gather_the_frontier(eg, data):
    decomp, common, delta = parts_of(eg)
    n, V = decomp.num_snapshots, decomp.num_vertices
    nodes = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)).map(sorted),
                               min_size=1, max_size=5), label="nodes")
    stack = StackedGraph(common, delta, nodes)
    frontier = np.array(data.draw(st.lists(
        st.integers(0, stack.num_vertices - 1), unique=True, max_size=30),
        label="frontier"), dtype=np.int64)
    cap = data.draw(st.integers(1, 40), label="cap")
    pieces = list(stack.gathers(frontier, cap))
    assert edges_of(*(np.concatenate(column) for column in zip(*pieces))) == (
        edges_of(*stack.gather(frontier)))
    vertices = frontier % V
    owned = int((np.diff(common.indptr)[vertices]
                 + np.diff(delta.csr.indptr)[vertices]).sum())
    if owned <= cap:
        assert len(pieces) == 1
    # Pieces hold whole rows, in row order.
    rows = [np.unique(origins // V) for origins, _, _ in pieces]
    rows = [r for r in rows if r.size]
    for before, after in zip(rows, rows[1:]):
        assert before[-1] < after[0]


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_a_walk_in_row_pieces_is_the_walk(small_evolving, name, monkeypatch):
    """Rows share no edge, so relaxing a round in pieces of rows changes
    no value and no counter."""
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    alg = get_algorithm(name)
    source = int(decomp.common_csr().degrees().argmax())
    whole = WorkSharingEvaluator(decomp, alg, source, weight_fn=WF).run()
    cuts = []
    row_pieces = stacked._row_pieces

    def recording(*args):
        pieces = row_pieces(*args)
        cuts.append(len(pieces))
        return pieces

    monkeypatch.setattr(stacked, "_row_pieces", recording)
    monkeypatch.setattr(engine, "PIECE_EDGES", 64)
    cut = WorkSharingEvaluator(decomp, alg, source, weight_fn=WF).run()
    assert max(cuts) > 1
    assert cut.counters == whole.counters
    for got, want in zip(cut.snapshot_values, whole.snapshot_values):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
