"""Tests for the parallel Direct-Hop and Work-Sharing evaluators."""

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.parallel import ParallelDirectHop, ParallelWorkSharing
from repro.core.steiner import direct_hop_tree
from repro.core.triangular_grid import TriangularGrid
from repro.kickstarter.engine import static_compute
from repro.graph.weights import HashWeights
from tests.conftest import assert_values_equal

WF = HashWeights(max_weight=8, seed=7)


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
        from repro.core.parallel import ParallelResult

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
