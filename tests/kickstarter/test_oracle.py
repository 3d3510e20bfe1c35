"""Every kernel entry point against the naive oracle, on the seeded
evolving graph the integration tests share."""

import pytest

from repro.core.common import CommonGraphDecomposition
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutableGraph
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import HashWeights
from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import incremental_additions, static_compute
from repro.kickstarter.pull import static_compute_pull
from tests.conftest import assert_values_equal, oracle_values

WF = HashWeights(max_weight=8, seed=7)
SOURCE = 3


@pytest.fixture
def oracle(small_evolving, algorithm):
    return oracle_values(small_evolving, algorithm, SOURCE, 0,
                         small_evolving.num_snapshots - 1, WF)


@pytest.mark.parametrize("mode", ["sync", "async", "auto"])
def test_static_compute(small_evolving, algorithm, oracle, mode):
    for i, want in enumerate(oracle):
        got = static_compute(small_evolving.snapshot_csr(i, weight_fn=WF),
                             algorithm, SOURCE, mode=mode)
        assert_values_equal(got.values, want, f"{algorithm.name}/{mode} v{i}")


@pytest.mark.parametrize("direction", ["pull", "auto"])
def test_static_compute_pull(small_evolving, algorithm, oracle, direction):
    for i, want in enumerate(oracle):
        got = static_compute_pull(small_evolving.snapshot_csr(i, weight_fn=WF),
                                  algorithm, SOURCE, direction=direction)
        assert_values_equal(got.values, want, f"{algorithm.name}/{direction} v{i}")


def test_incremental_additions(small_evolving, algorithm, oracle):
    """Common graph + a snapshot's surplus, streamed in: that snapshot."""
    n = small_evolving.num_vertices
    common = CommonGraphDecomposition.from_evolving(small_evolving).common
    base = CSRGraph.from_edge_set(common, n, weight_fn=WF)
    root = static_compute(base, algorithm, SOURCE)
    for i, want in enumerate(oracle):
        surplus = small_evolving.snapshot_edges(i) - common
        src, dst = surplus.arrays()
        state = root.copy()
        incremental_additions(
            OverlayGraph(base, (CSRGraph.from_edge_set(surplus, n, weight_fn=WF),)),
            algorithm, state, src, dst, WF(src, dst))
        assert_values_equal(state.values, want, f"{algorithm.name} v{i}")


@pytest.mark.parametrize("tagging", ["hybrid", "parent", "support"])
def test_trim_and_repair(small_evolving, algorithm, oracle, tagging):
    """The streaming baseline by hand: mutate, trim, repair, add."""
    graph = MutableGraph.from_edge_set(small_evolving.snapshot_edges(0),
                                       small_evolving.num_vertices, weight_fn=WF)
    state = static_compute(graph, algorithm, SOURCE, track_parents=True)
    for i, batch in enumerate(small_evolving.batches, start=1):
        graph.delete_batch(batch.deletions)
        trim_and_repair(graph, algorithm, state, batch.deletions, tagging=tagging,
                        deleted_weights=WF(*batch.deletions.arrays()))
        graph.add_batch(batch.additions)
        src, dst = batch.additions.arrays()
        incremental_additions(graph, algorithm, state, src, dst, WF(src, dst))
        assert_values_equal(state.values, oracle[i], f"{algorithm.name}/{tagging} v{i}")
