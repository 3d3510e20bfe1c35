"""The one walk, level by level: a sweep of sibling hops on a stacked
graph answers exactly what the naive oracle answers — for every
schedule shape, algorithm and sub-range — and what the same walk
answers one edge at a time."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import get_algorithm
from repro.bench.workloads import WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator, planned_schedule
from repro.core.steiner import (
    SPLIT_FANOUT, build_schedule, halving_schedule, split_schedule,
)
from repro.core.triangular_grid import TriangularGrid
from repro.graph.weights import HashWeights
from tests.conftest import ALL_ALGORITHMS, assert_values_equal, oracle_values
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=8, seed=7)
PERF_WF = HashWeights(max_weight=64, seed=0)
STRATEGIES = ("direct-hop", "work-sharing", "greedy", "agglomerative")


def one_edge_at_a_time(edges, compute):
    for row in range(len(edges)):
        compute([row])


@settings(max_examples=60, deadline=None)
@given(evolving_graphs(max_batches=6), st.sampled_from(STRATEGIES),
       st.sampled_from(ALL_ALGORITHMS), st.data())
def test_stacked_walk_is_the_oracle(eg, strategy, name, data):
    alg = get_algorithm(name)
    decomp = CommonGraphDecomposition.from_evolving(eg)
    n, V = decomp.num_snapshots, decomp.num_vertices
    first = data.draw(st.integers(0, n - 1), label="first")
    last = data.draw(st.integers(first, n - 1), label="last")
    source = data.draw(st.integers(0, V - 1), label="source")
    tree = planned_schedule(decomp, strategy, first, last)

    def evaluator():
        # The default schedule reads its sweeps from the plan; any other
        # is levelled as supplied.
        return WorkSharingEvaluator(
            decomp, alg, source, weight_fn=WF, first=first, last=last,
            schedule=None if strategy == "work-sharing" else tree)

    want = oracle_values(decomp, alg, source, first, last, WF)
    cold = evaluator().run()
    assert cold.stabilisations == len(tree.parent)
    assert cold.additions_processed == tree.cost(
        TriangularGrid(decomp).subgrid(first, last))

    stepwise = evaluator().run(run_sweep=one_edge_at_a_time)

    for result in (cold, stepwise):
        assert len(result.snapshot_values) == len(want)
        for got, expected in zip(result.snapshot_values, want):
            assert got.tobytes() == expected.tobytes()
    assert stepwise.stabilisations == cold.stabilisations
    assert stepwise.additions_processed == cold.additions_processed


@pytest.mark.parametrize("mode", ["sync", "async", "auto"])
def test_every_scheduler_mode_sweeps_to_the_same_answer(small_evolving,
                                                        algorithm, mode):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    result = WorkSharingEvaluator(decomp, algorithm, 3, weight_fn=WF,
                                  mode=mode, first=1, last=6).run()
    for got, want in zip(result.snapshot_values,
                         oracle_values(decomp, algorithm, 3, 1, 6, WF)):
        assert_values_equal(got, want, f"{algorithm.name}/{mode}")


def test_a_walk_allocates_its_rows_once(small_evolving):
    """Every node's row lives in one arena (a row per tree edge), and a
    snapshot's answer is its row there: no per-level matrices, no copy."""
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    n, V = decomp.num_snapshots, decomp.num_vertices
    for first, last in ((0, n - 1), (1, 5)):
        evaluator = WorkSharingEvaluator(decomp, get_algorithm("SSSP"), 3,
                                         weight_fn=WF, first=first, last=last)
        result = evaluator.run()
        (arena,) = {id(row.base): row.base for row in result.snapshot_values
                    }.values()
        assert arena.shape == (len(evaluator.schedule.parent), V)
    single = WorkSharingEvaluator(decomp, get_algorithm("SSSP"), 3,
                                  weight_fn=WF, first=2, last=2).run()
    assert single.snapshot_values[0].shape == (V,)


@functools.lru_cache(maxsize=None)
def perf_input(profile):
    """A perf workload's input (seed 11), e.g. ``"DL/50"``."""
    dataset, snapshots = profile.split("/")
    return build_workload(WorkloadSpec(
        dataset=dataset, num_snapshots=int(snapshots), batch_size=75,
        edge_scale=1.0, seed=11)).evolving


@pytest.mark.parametrize("profile, halving, greedy, depth", [
    ("small", 691, 1002, 3), ("LJ/16", 2389, 5083, 4),
    ("DL/50", 10708, 48188, 6),
])
def test_halving_costs_no_more_than_greedy_on_the_generator_profiles(
        small_evolving, profile, halving, greedy, depth):
    """The perf workloads' inputs (seed 11): range halving (fanout 2)
    against the paper's greedy tree, in additions."""
    evolving = small_evolving if profile == "small" else perf_input(profile)
    grid = TriangularGrid(CommonGraphDecomposition.from_evolving(evolving))
    tree = halving_schedule(grid)
    assert tree.cost(grid) == halving <= greedy
    assert build_schedule(grid, "greedy").cost(grid) == greedy
    assert len(list(tree.levels())) == depth
    assert len(tree.nodes) == 2 * grid.n - 1


@pytest.mark.parametrize("profile, cost, levels", [
    ("LJ/16", 3581, [4, 16]), ("DL/50", 15255, [4, 16, 50]),
])
def test_the_default_splits_four_ways_on_the_generator_profiles(
        profile, cost, levels):
    """What ``core.schedule_cost_edges`` reads on the perf inputs: ~40 %
    more additions than halving, in half its levels (edges per level)."""
    grid = TriangularGrid(
        CommonGraphDecomposition.from_evolving(perf_input(profile)))
    tree = build_schedule(grid, "work-sharing")
    assert tree.parent == split_schedule(grid, SPLIT_FANOUT).parent
    assert tree.cost(grid) == cost
    assert [len(level) for level in tree.levels()] == levels


@pytest.mark.parametrize("name, source, halving, split", [
    ("BFS", 0, 19, 14), ("BFS", 1, 16, 12), ("BFS", 2, 24, 11),
    ("SSSP", 0, 32, 21), ("SSSP", 1, 43, 25), ("SSSP", 2, 38, 26),
])
def test_the_walk_work_on_dl50(name, source, halving, split):
    """Exact rounds and additions of a full DL/50 walk (the perf inputs
    and weights): the four-way split streams 15 255 additions in fewer
    rounds than halving's 10 708."""
    decomp = CommonGraphDecomposition.from_evolving(perf_input("DL/50"))
    grid = TriangularGrid(decomp)
    for schedule, iterations, additions in (
            (halving_schedule(grid), halving, 10708), (None, split, 15255)):
        result = WorkSharingEvaluator(
            decomp, get_algorithm(name), source, weight_fn=PERF_WF,
            schedule=schedule).run(keep_values=False)
        assert (result.counters.iterations,
                result.additions_processed) == (iterations, additions)
