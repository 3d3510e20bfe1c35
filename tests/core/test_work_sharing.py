"""Tests for the Work-Sharing evaluator (schedule-tree execution)."""

import pytest
from hypothesis import given, settings

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.schedule import ScheduleTree
from repro.core.steiner import (
    direct_hop_tree, exact_steiner, greedy_steiner, halving_schedule,
    split_schedule,
)
from repro.core.triangular_grid import TriangularGrid
from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute
from tests.conftest import ALL_ALGORITHMS, assert_values_equal
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=8, seed=7)


class TestWorkSharing:
    def test_matches_scratch_every_snapshot(self, small_evolving, algorithm):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = WorkSharingEvaluator(decomp, algorithm, 3, weight_fn=WF).run()
        assert result.strategy == "work-sharing"
        for i in range(small_evolving.num_snapshots):
            g = small_evolving.snapshot_csr(i, weight_fn=WF)
            want = static_compute(g, algorithm, 3).values
            assert_values_equal(
                result.snapshot_values[i], want, f"{algorithm.name}@{i}"
            )

    def test_default_schedule_is_the_four_way_split(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        evaluator = WorkSharingEvaluator(decomp, get_algorithm("BFS"), 3, weight_fn=WF)
        grid = TriangularGrid(decomp)
        assert evaluator.schedule.parent == split_schedule(grid, 4).parent
        # Fewer levels than halving, for more additions.
        halving = halving_schedule(grid)
        assert (len(list(evaluator.schedule.levels()))
                < len(list(halving.levels())))
        assert evaluator.schedule.cost(grid) >= halving.cost(grid)

    def test_additions_processed_equals_schedule_cost(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        evaluator = WorkSharingEvaluator(decomp, get_algorithm("BFS"), 3, weight_fn=WF)
        result = evaluator.run(keep_values=False)
        grid = TriangularGrid(decomp)
        assert result.additions_processed == evaluator.schedule.cost(grid)
        assert result.stabilisations == evaluator.schedule.num_stabilisations()
        # Work sharing strictly saves additions on this workload.
        dh = DirectHopEvaluator(decomp, get_algorithm("BFS"), 3, weight_fn=WF).run(
            keep_values=False
        )
        assert result.additions_processed < dh.additions_processed

    def test_explicit_direct_hop_schedule(self, small_evolving, algorithm):
        """Work-sharing engine with a star schedule == Direct-Hop values."""
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        grid = TriangularGrid(decomp)
        result = WorkSharingEvaluator(
            decomp, algorithm, 3, weight_fn=WF, schedule=direct_hop_tree(grid)
        ).run()
        dh = DirectHopEvaluator(decomp, algorithm, 3, weight_fn=WF).run()
        for a, b in zip(result.snapshot_values, dh.snapshot_values):
            assert_values_equal(a, b)

    def test_invalid_schedule_rejected(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        bogus = ScheduleTree(root=(0, 0))
        with pytest.raises(ScheduleError):
            WorkSharingEvaluator(
                decomp, get_algorithm("BFS"), 3, weight_fn=WF, schedule=bogus
            )

    def test_single_snapshot(self):
        from repro.evolving.snapshots import EvolvingGraph
        from repro.graph.edgeset import EdgeSet

        eg = EvolvingGraph(4, EdgeSet.from_pairs([(0, 1), (1, 2)]))
        decomp = CommonGraphDecomposition.from_evolving(eg)
        result = WorkSharingEvaluator(
            decomp, get_algorithm("BFS"), 0, weight_fn=WF
        ).run()
        assert len(result.snapshot_values) == 1
        assert result.snapshot_values[0].tolist()[:3] == [0.0, 1.0, 2.0]


@settings(max_examples=20, deadline=None)
@given(evolving_graphs(max_batches=4))
@pytest.mark.parametrize("schedule_kind", ["greedy", "exact", "uncompressed"])
def test_work_sharing_random_schedules(schedule_kind, eg):
    """Any valid schedule must produce identical per-snapshot values."""
    alg = get_algorithm("SSSP")
    decomp = CommonGraphDecomposition.from_evolving(eg)
    grid = TriangularGrid(decomp)
    if schedule_kind == "greedy":
        schedule = greedy_steiner(grid)
    elif schedule_kind == "exact":
        schedule = exact_steiner(grid)
    else:
        schedule = greedy_steiner(grid, compress=False)
    result = WorkSharingEvaluator(
        decomp, alg, 0, weight_fn=WF, schedule=schedule
    ).run()
    for i in range(eg.num_snapshots):
        g = CSRGraph.from_edge_set(eg.snapshot_edges(i), eg.num_vertices, weight_fn=WF)
        want = static_compute(g, alg, 0).values
        assert_values_equal(result.snapshot_values[i], want, f"{schedule_kind}@{i}")


@settings(max_examples=20, deadline=None)
@given(evolving_graphs(max_batches=6))
@pytest.mark.parametrize("fanout", [2, 3, 4, "n"])
def test_every_split_fanout_gives_the_same_answers(fanout, eg):
    """The fixpoint on ``ICG(node)`` is unique whatever tree reaches it:
    every fanout answers what each snapshot's static convergence does,
    bit for bit, for all five algorithms; fanout ``n`` is the star."""
    decomp = CommonGraphDecomposition.from_evolving(eg)
    grid = TriangularGrid(decomp)
    schedule = split_schedule(grid, max(grid.n, 2) if fanout == "n" else fanout)
    if fanout == "n":
        assert schedule.parent == direct_hop_tree(grid).parent
    snapshots = [CSRGraph.from_edge_set(eg.snapshot_edges(i), eg.num_vertices,
                                        weight_fn=WF)
                 for i in range(eg.num_snapshots)]
    for name in ALL_ALGORITHMS:
        alg = get_algorithm(name)
        result = WorkSharingEvaluator(decomp, alg, 0, weight_fn=WF,
                                      schedule=schedule).run()
        for i, graph in enumerate(snapshots):
            assert_values_equal(result.snapshot_values[i],
                                static_compute(graph, alg, 0).values,
                                f"{name}@{i}, fanout {fanout}")
