"""Tests for ScheduleTree (validation, cost, bypass compression)."""

import pytest
from hypothesis import given, settings

from repro.core.common import CommonGraphDecomposition
from repro.core.schedule import ScheduleTree
from repro.core.steiner import (
    direct_hop_tree, greedy_steiner, halving_schedule,
)
from repro.core.triangular_grid import TriangularGrid
from repro.errors import ScheduleError
from tests.strategies import evolving_graphs


def grid_for(eg):
    return TriangularGrid(CommonGraphDecomposition.from_evolving(eg))


@pytest.fixture
def grid(small_evolving):
    return grid_for(small_evolving)


class TestValidation:
    def test_direct_hop_is_valid(self, grid):
        direct_hop_tree(grid).validate(grid)

    def test_wrong_root(self, grid):
        tree = ScheduleTree(root=(0, 0))
        with pytest.raises(ScheduleError, match="root"):
            tree.validate(grid)

    def test_missing_leaf(self, grid):
        tree = ScheduleTree(root=grid.root)
        tree.parent[(0, 0)] = grid.root
        with pytest.raises(ScheduleError, match="not covered"):
            tree.validate(grid)

    def test_non_containment_edge(self, grid):
        tree = direct_hop_tree(grid)
        tree.parent[(0, 0)] = (1, 1)
        with pytest.raises(ScheduleError, match="containment"):
            tree.validate(grid)

    def test_disconnected_subtree(self, grid):
        tree = direct_hop_tree(grid)
        # (0, 1) hangs off (0, 2), which is not in the tree.
        tree.parent[(0, 1)] = (0, 2)
        with pytest.raises(ScheduleError, match="disconnected"):
            tree.validate(grid)

    def test_add_edge_guards(self, grid):
        tree = ScheduleTree(root=grid.root)
        with pytest.raises(ScheduleError, match="parent .* not in tree"):
            tree.add_edge((0, 1), (0, 0))
        tree.add_edge(grid.root, (0, 0))
        with pytest.raises(ScheduleError, match="already in tree"):
            tree.add_edge(grid.root, (0, 0))


class TestStructure:
    def test_edges_bfs_order(self, grid):
        tree = greedy_steiner(grid)
        edges = list(tree.edges())
        seen = {tree.root}
        for parent, child in edges:
            assert parent in seen  # parents always emitted first
            seen.add(child)
        assert len(edges) == len(tree.parent)

    def test_children_map(self, grid):
        tree = direct_hop_tree(grid)
        children = tree.children_map()
        assert sorted(children[grid.root]) == grid.leaves
        for leaf in grid.leaves:
            assert children[leaf] == []

    def test_cost_direct_hop(self, grid):
        tree = direct_hop_tree(grid)
        assert tree.cost(grid) == grid.decomposition.total_direct_hop_additions()

    def test_num_stabilisations(self, grid):
        assert direct_hop_tree(grid).num_stabilisations() == grid.n


class TestCompression:
    def test_bypass_chain(self, grid):
        """root -> (0,1) -> (0,0) plus other leaves: (0,1) is bypassed
        when it only forwards to one child."""
        tree = ScheduleTree(root=grid.root)
        tree.parent[(0, 1)] = grid.root
        tree.parent[(0, 0)] = (0, 1)
        for i in range(1, grid.n):
            tree.parent[(i, i)] = grid.root
        compressed = tree.compressed(grid)
        assert (0, 1) not in compressed.parent
        assert compressed.parent[(0, 0)] == grid.root
        compressed.validate(grid)

    def test_bypass_preserves_cost(self, grid):
        tree = greedy_steiner(grid, compress=False)
        compressed = tree.compressed(grid)
        assert compressed.cost(grid) == tree.cost(grid)
        assert compressed.num_stabilisations() <= tree.num_stabilisations()

    def test_branching_node_kept(self, grid):
        tree = ScheduleTree(root=grid.root)
        tree.parent[(0, 1)] = grid.root
        tree.parent[(0, 0)] = (0, 1)
        tree.parent[(1, 1)] = (0, 1)
        for i in range(2, grid.n):
            tree.parent[(i, i)] = grid.root
        compressed = tree.compressed(grid)
        assert (0, 1) in compressed.parent  # two children -> kept

    def test_long_chain_fully_bypassed(self, grid):
        """A full adjacency path to one leaf compresses to a single jump."""
        n = grid.n
        tree = ScheduleTree(root=grid.root)
        node = grid.root
        while node != (0, 0):
            child = (node[0], node[1] - 1)
            tree.parent[child] = node
            node = child
        for i in range(1, n):
            tree.parent[(i, i)] = grid.root
        compressed = tree.compressed(grid)
        assert compressed.parent[(0, 0)] == grid.root
        interior = [k for k in compressed.parent if k[0] != k[1]]
        assert interior == []


@settings(max_examples=25)
@given(evolving_graphs(max_batches=4))
def test_compression_random(eg):
    grid = grid_for(eg)
    tree = greedy_steiner(grid, compress=False)
    compressed = tree.compressed(grid)
    compressed.validate(grid)
    assert compressed.cost(grid) == tree.cost(grid)
    # No interior node may have exactly one child after compression.
    children = compressed.children_map()
    for node, kids in children.items():
        if node != grid.root and node not in grid.leaves:
            assert len(kids) != 1


def reference_edges(tree):
    """``ScheduleTree.edges`` as it was before ``levels`` (verbatim)."""
    children = tree.children_map()
    queue = [tree.root]
    while queue:
        node = queue.pop(0)
        for child in children.get(node, []):
            yield node, child
            queue.append(child)


@settings(max_examples=25, deadline=None)
@given(evolving_graphs(max_batches=5))
def test_levels_are_the_breadth_first_edges_by_depth(eg):
    grid = grid_for(eg)
    for tree in (greedy_steiner(grid, compress=False), greedy_steiner(grid),
                 halving_schedule(grid), direct_hop_tree(grid)):
        levels = list(tree.levels())
        flat = [edge for level in levels for edge in level]
        assert flat == list(reference_edges(tree)) == list(tree.edges())
        depth = {tree.root: 0}
        for d, level in enumerate(levels, start=1):
            assert level  # no empty sweep
            for parent, child in level:
                assert depth[parent] == d - 1
                depth[child] = d
        assert len(depth) == len(tree.nodes)


def test_a_long_star_is_one_level():
    n = 20_000
    tree = ScheduleTree(root=(0, n - 1),
                        parent={(i, i): (0, n - 1) for i in range(n)})
    (level,) = tree.levels()
    assert level == [((0, n - 1), (i, i)) for i in range(n)]
    assert sum(1 for _ in tree.edges()) == n
