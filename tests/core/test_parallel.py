"""Tests for the parallel Direct-Hop and Work-Sharing projections."""

from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import planned_schedule
from repro.core.parallel import (
    ParallelDirectHop,
    ParallelResult,
    ParallelWorkSharing,
)
from repro.core.steiner import build_schedule, direct_hop_tree
from repro.core.triangular_grid import TriangularGrid
from repro.kickstarter.engine import static_compute
from repro.graph.weights import HashWeights
from tests.conftest import ALL_ALGORITHMS, assert_values_equal, oracle_values
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=8, seed=7)


def heaviest_chain(schedule, edge_seconds):
    """Max over leaves of the edge times on the path root → leaf, summed
    root-first (the order that keeps the comparison exact)."""
    heaviest = 0.0
    for leaf in schedule.nodes:
        path = [leaf]
        while path[-1] != schedule.root:
            path.append(schedule.parent[path[-1]])
        path.reverse()
        chain = 0.0
        for parent, child in zip(path, path[1:]):
            chain += edge_seconds[parent, child]
        heaviest = max(heaviest, chain)
    return heaviest


@settings(max_examples=40, deadline=None)
@given(evolving_graphs(max_batches=5), st.sampled_from(ALL_ALGORITHMS),
       st.data())
def test_direct_hop_projection_is_the_longest_hop(eg, name, data):
    alg = get_algorithm(name)
    source = data.draw(st.integers(0, eg.num_vertices - 1), label="source")
    decomp = CommonGraphDecomposition.from_evolving(eg)
    result = ParallelDirectHop(decomp, alg, source, weight_fn=WF).run()
    n = eg.num_snapshots
    # One snapshot is the root itself: no hop, nothing on the critical path.
    assert len(result.per_hop_seconds) == (n if n > 1 else 0)
    assert result.critical_path_seconds == max(result.per_hop_seconds,
                                               default=0.0)
    assert result.sequential_seconds == sum(result.per_hop_seconds)
    for got, want in zip(result.snapshot_values,
                         oracle_values(eg, alg, source, 0, n - 1, WF),
                         strict=True):
        assert_values_equal(got, want, name)


@settings(max_examples=40, deadline=None)
@given(evolving_graphs(max_batches=5), st.sampled_from(ALL_ALGORITHMS),
       st.sampled_from(("work-sharing", "greedy", "agglomerative", None)),
       st.data())
def test_work_sharing_projection_is_the_heaviest_chain(eg, name, strategy, data):
    alg = get_algorithm(name)
    source = data.draw(st.integers(0, eg.num_vertices - 1), label="source")
    decomp = CommonGraphDecomposition.from_evolving(eg)
    # None: the evaluator plans its own (the default strategy's) schedule.
    schedule = (build_schedule(TriangularGrid(decomp), strategy)
                if strategy else None)
    result = ParallelWorkSharing(decomp, alg, source, weight_fn=WF,
                                 schedule=schedule).run()
    walked = planned_schedule(decomp) if schedule is None else schedule
    assert set(result.edge_seconds) == set(walked.edges())
    assert result.critical_path_seconds == (
        result.initial_seconds + heaviest_chain(walked, result.edge_seconds))
    assert result.sequential_seconds == sum(result.edge_seconds.values())
    n = eg.num_snapshots
    assert sorted(result.snapshot_values) == list(range(n))
    for i, want in enumerate(oracle_values(eg, alg, source, 0, n - 1, WF)):
        assert_values_equal(result.snapshot_values[i], want, name)


class TestParallelDirectHop:
    def test_values_match_scratch(self, small_evolving, algorithm):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = ParallelDirectHop(decomp, algorithm, 3, weight_fn=WF).run()
        for i in range(small_evolving.num_snapshots):
            g = small_evolving.snapshot_csr(i, weight_fn=WF)
            want = static_compute(g, algorithm, 3).values
            assert_values_equal(result.snapshot_values[i], want, algorithm.name)

    def test_timing_projections(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = ParallelDirectHop(
            decomp, get_algorithm("SSSP"), 3, weight_fn=WF
        ).run()
        n = small_evolving.num_snapshots
        assert len(result.per_hop_seconds) == n
        assert result.critical_path_seconds == max(result.per_hop_seconds)
        assert result.sequential_seconds >= result.critical_path_seconds
        assert result.initial_seconds > 0

    def test_empty_hop_list_critical_path(self):
        assert ParallelResult().critical_path_seconds == 0.0


class TestParallelWorkSharing:
    def test_values_match_scratch(self, small_evolving, algorithm):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = ParallelWorkSharing(decomp, algorithm, 3, weight_fn=WF).run()
        assert sorted(result.snapshot_values) == list(
            range(small_evolving.num_snapshots)
        )
        for i in range(small_evolving.num_snapshots):
            g = small_evolving.snapshot_csr(i, weight_fn=WF)
            want = static_compute(g, algorithm, 3).values
            assert_values_equal(result.snapshot_values[i], want, algorithm.name)

    def test_critical_path_bounds(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = ParallelWorkSharing(
            decomp, get_algorithm("BFS"), 3, weight_fn=WF
        ).run()
        assert result.edge_seconds  # every schedule edge was timed
        longest_edge = max(result.edge_seconds.values())
        assert result.critical_path_seconds >= result.initial_seconds + longest_edge
        assert (
            result.critical_path_seconds
            <= result.initial_seconds + result.sequential_seconds
        )

    def test_star_schedule_equals_direct_hop_projection(self, small_evolving):
        """With the star schedule, the per-edge times are per-hop times."""
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        grid = TriangularGrid(decomp)
        result = ParallelWorkSharing(
            decomp, get_algorithm("BFS"), 3, weight_fn=WF,
            schedule=direct_hop_tree(grid),
        ).run()
        assert len(result.edge_seconds) == small_evolving.num_snapshots
        assert result.critical_path_seconds == (
            result.initial_seconds + max(result.edge_seconds.values()))
