"""Tests for schedule construction (direct-hop, greedy, exact Steiner)."""

import pytest
from hypothesis import given, settings

from repro.core.common import CommonGraphDecomposition
from repro.core.schedule import ScheduleTree
from repro.core.steiner import (
    _descend_path,
    agglomerative_schedule,
    build_schedule,
    direct_hop_tree,
    exact_steiner,
    greedy_steiner,
    halving_schedule,
    split_schedule,
    SPLIT_FANOUT,
)
from repro.core.triangular_grid import TriangularGrid
from repro.errors import ScheduleError
from repro.evolving.generator import generate_evolving_graph
from repro.graph.generators import rmat_edges
from tests.strategies import evolving_graphs


def grid_for(eg):
    return TriangularGrid(CommonGraphDecomposition.from_evolving(eg))


class TestDirectHop:
    def test_star_shape(self, small_evolving):
        grid = grid_for(small_evolving)
        tree = direct_hop_tree(grid)
        assert set(tree.parent.values()) <= {grid.root}
        assert sorted(tree.parent) == grid.leaves
        tree.validate(grid)


class TestGreedy:
    def test_valid_and_no_worse_than_direct_hop(self, small_evolving):
        grid = grid_for(small_evolving)
        tree = greedy_steiner(grid)
        tree.validate(grid)
        assert tree.cost(grid) <= direct_hop_tree(grid).cost(grid)

    def test_build_schedule_dispatch(self, small_evolving):
        grid = grid_for(small_evolving)
        assert build_schedule(grid, "direct-hop").parent == direct_hop_tree(grid).parent
        assert build_schedule(grid, "greedy").parent == greedy_steiner(grid).parent
        with pytest.raises(ScheduleError, match="unknown strategy"):
            build_schedule(grid, "magic")

    def test_single_snapshot(self):
        from repro.evolving.snapshots import EvolvingGraph
        from repro.graph.edgeset import EdgeSet

        eg = EvolvingGraph(3, EdgeSet.from_pairs([(0, 1)]))
        grid = grid_for(eg)
        tree = greedy_steiner(grid)
        tree.validate(grid)
        assert tree.cost(grid) == 0
        assert tree.num_stabilisations() == 0


class TestHalving:
    def test_shape(self, small_evolving):
        grid = grid_for(small_evolving)
        tree = halving_schedule(grid)
        tree.validate(grid)
        assert tree.parent == tree.compressed(grid).parent  # nothing to bypass
        assert len(tree.nodes) == 2 * grid.n - 1
        for (i, j), kids in tree.children_map().items():
            if i < j:
                mid = (i + j) // 2
                assert kids == [(i, mid), (mid + 1, j)]
        assert split_schedule(grid, 2).parent == tree.parent

    def test_compares_no_surplus(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        for fanout in (2, 3, SPLIT_FANOUT, decomp.num_snapshots):
            split_schedule(TriangularGrid(decomp), fanout)
        assert decomp._interval_cache == {}

    def test_single_snapshot_and_subgrid(self, small_evolving):
        grid = grid_for(small_evolving)
        assert halving_schedule(grid.subgrid(3, 3)).parent == {}
        sub = halving_schedule(grid.subgrid(2, 6))
        sub.validate(grid.subgrid(2, 6))
        assert sub.root == (2, 6) and sub.parent[(2, 4)] == (2, 6)

    @settings(max_examples=25, deadline=None)
    @given(evolving_graphs(max_batches=4))
    def test_bounded_by_exact_and_star(self, eg):
        grid = grid_for(eg)
        tree = halving_schedule(grid)
        tree.validate(grid)
        assert exact_steiner(grid).cost(grid) <= tree.cost(grid)
        assert tree.cost(grid) <= direct_hop_tree(grid).cost(grid)


class TestSplit:
    def test_default_is_the_four_way_split(self, small_evolving):
        grid = grid_for(small_evolving)
        tree = split_schedule(grid, SPLIT_FANOUT)
        tree.validate(grid)
        assert tree.parent == tree.compressed(grid).parent
        assert build_schedule(grid, "work-sharing").parent == tree.parent
        for (i, j), kids in tree.children_map().items():
            if i == j:
                continue
            # Consecutive, covering, the longer ones first by one at most.
            assert len(kids) == min(SPLIT_FANOUT, j - i + 1)
            assert [a for a, _ in kids] == [i] + [b + 1 for _, b in kids[:-1]]
            assert kids[-1][1] == j
            sizes = [b - a + 1 for a, b in kids]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] - sizes[-1] <= 1

    def test_fanout_at_least_n_is_the_star(self, small_evolving):
        grid = grid_for(small_evolving)
        for fanout in (grid.n, grid.n + 5):
            assert (split_schedule(grid, fanout).parent
                    == direct_hop_tree(grid).parent)
        with pytest.raises(ScheduleError, match="fanout"):
            split_schedule(grid, 1)

    @settings(max_examples=25, deadline=None)
    @given(evolving_graphs(max_batches=6))
    def test_valid_for_every_fanout(self, eg):
        grid = grid_for(eg)
        for fanout in (2, 3, 4):
            tree = split_schedule(grid, fanout)
            tree.validate(grid)
            assert tree.cost(grid) <= direct_hop_tree(grid).cost(grid)


class TestAgglomerative:
    def test_valid_and_no_worse_than_direct_hop(self, small_evolving):
        grid = grid_for(small_evolving)
        tree = agglomerative_schedule(grid)
        tree.validate(grid)
        assert tree.cost(grid) <= direct_hop_tree(grid).cost(grid)

    def test_build_schedule_dispatch(self, small_evolving):
        grid = grid_for(small_evolving)
        assert build_schedule(grid, "agglomerative").cost(grid) == (
            agglomerative_schedule(grid).cost(grid)
        )

    @settings(max_examples=25, deadline=None)
    @given(evolving_graphs(max_batches=4))
    def test_bounded_by_exact_and_star(self, eg):
        grid = grid_for(eg)
        agglo = agglomerative_schedule(grid)
        agglo.validate(grid)
        assert exact_steiner(grid).cost(grid) <= agglo.cost(grid)
        assert agglo.cost(grid) <= direct_hop_tree(grid).cost(grid)


class TestExact:
    def test_refuses_large_grids(self, small_evolving):
        grid = grid_for(small_evolving)
        assert grid.n > 6
        with pytest.raises(ScheduleError, match="exponential"):
            exact_steiner(grid)

    @settings(max_examples=25, deadline=None)
    @given(evolving_graphs(max_batches=4))
    def test_exact_is_lower_bound(self, eg):
        grid = grid_for(eg)
        exact = exact_steiner(grid)
        exact.validate(grid)
        greedy = greedy_steiner(grid)
        star = direct_hop_tree(grid)
        assert exact.cost(grid) <= greedy.cost(grid)
        assert exact.cost(grid) <= star.cost(grid)


@settings(max_examples=25, deadline=None)
@given(evolving_graphs(max_batches=4))
def test_greedy_properties_random(eg):
    grid = grid_for(eg)
    tree = greedy_steiner(grid)
    tree.validate(grid)
    assert tree.cost(grid) <= direct_hop_tree(grid).cost(grid)
    # Every leaf is reachable from the root through parent pointers.
    for leaf in grid.leaves:
        node = leaf
        hops = 0
        while node != grid.root:
            node = tree.parent[node]
            hops += 1
            assert hops <= grid.num_nodes()


def reference_greedy_steiner(grid, compress=True):
    """``greedy_steiner`` as it was before anchors were kept incrementally
    (verbatim): every round rescans ``uncovered × tree.nodes``."""
    tree = ScheduleTree(root=grid.root)
    uncovered = [leaf for leaf in grid.leaves if leaf != grid.root]
    while uncovered:
        # For each uncovered leaf, its cheapest anchor is the tree node
        # containing it with the largest surplus (telescoping weights).
        best = None
        tree_nodes = tree.nodes
        for leaf in uncovered:
            leaf_size = grid.surplus_size(leaf)
            anchor = None
            anchor_size = -1
            for node in tree_nodes:
                if TriangularGrid.contains(node, leaf):
                    size = grid.surplus_size(node)
                    if size > anchor_size:
                        anchor, anchor_size = node, size
            assert anchor is not None  # the root contains everything
            cost = leaf_size - anchor_size
            if best is None or cost < best[0]:
                best = (cost, anchor, leaf)
        _, anchor, leaf = best
        path = _descend_path(grid, anchor, leaf)
        # Commit the path; if it runs through an existing tree node,
        # restart from there (those prefix edges would be redundant).
        last_known = max(
            (k for k, node in enumerate(path) if tree.contains_node(node)),
            default=0,
        )
        for parent, child in zip(path[last_known:], path[last_known + 1:]):
            if not tree.contains_node(child):
                tree.add_edge(parent, child)
        uncovered.remove(leaf)
    if compress:
        tree = tree.compressed(grid)
    tree.validate(grid)
    return tree


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_is_the_reference_tree(n, seed):
    """Same tree, tie-breaks included: few distinct edges and heavy
    re-adding make equal surplus sizes (the tie cases) common."""
    eg = generate_evolving_graph(
        num_vertices=16,
        base=rmat_edges(scale=4, num_edges=40, seed=seed),
        num_snapshots=n, batch_size=4, readd_fraction=0.7, seed=seed,
    )
    grid = grid_for(eg)
    for compress in (False, True):
        assert (greedy_steiner(grid, compress).parent
                == reference_greedy_steiner(grid, compress).parent)
