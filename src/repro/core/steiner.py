"""Schedule construction: range splits, greedy and exact Steiner.

Finding the minimum-cost query-evaluation schedule is a Steiner tree
problem on the Triangular Grid with terminals {root} ∪ {leaves}
(§3.2, Algorithm 1).  The engine sweeps a schedule one *level* at a
time (:mod:`repro.core.engine`), so a schedule's running time is its
depth times a few vectorised rounds, plus the additions each round
carries.  :func:`split_schedule` trades the two without looking at a
single surplus: split the range into ``fanout`` equal parts, recurse.
Its edges are the paper's bypass edges (containment jumps over every
grid node in between) and its depth is ``⌈log_fanout n⌉``; fanout 2 is
range halving, fanout ≥ n the Direct-Hop star.  The default,
``"work-sharing"``, splits :data:`SPLIT_FANOUT` ways: on the repo's
generator profiles it streams ~40 % more additions than halving in half
the levels, and walks faster (DL/50: 15 255 additions at depth 3,
halving 10 708 at depth 6, the nearest-terminal greedy tree 48 188 at
depth 49).

:func:`greedy_steiner` is the paper's Algorithm 1 heuristic, kept under
the name ``"greedy"`` for the ablation table.  Because TG edge weights
telescope (``w(p→c) = |surplus(c)| − |surplus(p)|``), the shortest-path
distance from any tree node ``A ⊇ x`` down to ``x`` is ``|surplus(x)| −
|surplus(A)|`` regardless of the route, so the classic
nearest-terminal greedy reduces to: repeatedly connect the cheapest
uncovered snapshot to its deepest (largest-surplus) covering node
already in the tree.  Route selection among equal-cost paths still
matters for *future* sharing; we descend through the child with the
larger surplus, which keeps shared edges as high in the grid as
possible.

``exact_steiner`` solves the problem optimally by enumerating subsets
of intermediate nodes (exponential; guarded to small ``n``) — used by
tests and the ablation benchmark to measure the greedy gap.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.schedule import ScheduleTree
from repro.core.triangular_grid import Interval, TriangularGrid
from repro.errors import ScheduleError

__all__ = [
    "direct_hop_tree",
    "halving_schedule",
    "split_schedule",
    "SPLIT_FANOUT",
    "greedy_steiner",
    "agglomerative_schedule",
    "exact_steiner",
    "build_schedule",
    "schedule_builder",
    "STRATEGIES",
]


#: Children per interior node of the default ``"work-sharing"`` tree: the
#: measured optimum.  Walk time against fanout 2, BFS and SSSP from 30
#: sources on the seed-11 DL/50 and LJ/16 inputs: fanout 3 ×0.88–0.99,
#: 4 ×0.82–0.90, 8 ×0.78–0.92 (slower than 4 on LJ/16, wider leaf
#: batches), the star ×0.88–1.06.
SPLIT_FANOUT = 4


def split_schedule(grid: TriangularGrid, fanout: int) -> ScheduleTree:
    """Recursive ``fanout``-way split of the snapshot range: ``(i, j)``
    hands ``min(fanout, j − i + 1)`` equal consecutive sub-ranges (the
    earlier ones one snapshot longer when it does not divide) the
    additions they share, and each sub-range recurses.  Its edges are
    bypass edges, every interior node has at least two children, and
    it compares no surplus.  ``fanout = 2`` is range halving, ``fanout
    ≥ n`` the Direct-Hop star."""
    if fanout < 2:
        raise ScheduleError(f"a split needs fanout >= 2, got {fanout}")
    tree = ScheduleTree(root=grid.root)
    pending = [grid.root]
    while pending:
        i, j = node = pending.pop()
        size = j - i + 1
        parts = min(fanout, size)
        if parts == 1:
            continue
        cuts = [i + part * (size // parts) + min(part, size % parts)
                for part in range(parts + 1)]
        for start, end in zip(cuts, cuts[1:]):
            tree.parent[(start, end - 1)] = node
            pending.append((start, end - 1))
    return tree


def direct_hop_tree(grid: TriangularGrid) -> ScheduleTree:
    """The star schedule: every snapshot hangs directly off the root."""
    return split_schedule(grid, max(grid.n, 2))


def halving_schedule(grid: TriangularGrid) -> ScheduleTree:
    """Range halving: ``(i, j)`` splits at ``(i + j) // 2``, ``2n − 1``
    nodes at depth ``⌈log₂ n⌉``."""
    return split_schedule(grid, 2)


def _descend_path(
    grid: TriangularGrid, start: Interval, leaf: Interval
) -> List[Interval]:
    """A root-ward-to-leaf path of grid-adjacent nodes from ``start``.

    Among the two admissible children at each step, prefer the one with
    the larger surplus (ties: the one containing the smaller index),
    deferring additions as long as possible to maximise later sharing.
    """
    if not TriangularGrid.contains(start, leaf):
        raise ScheduleError(f"{start} does not contain {leaf}")
    path = [start]
    node = start
    x = leaf[0]
    while node != leaf:
        candidates = [c for c in grid.children(node) if TriangularGrid.contains(c, leaf)]
        if len(candidates) == 1:
            node = candidates[0]
        else:
            a, b = candidates
            node = a if grid.surplus_size(a) >= grid.surplus_size(b) else b
        path.append(node)
    assert path[-1] == (x, x)
    return path


def greedy_steiner(grid: TriangularGrid, compress: bool = True) -> ScheduleTree:
    """Nearest-terminal greedy Steiner tree (Algorithm 1, step 2).

    With ``compress=True`` the bypass step (Algorithm 1, step 3) is
    applied before returning.  A round costs one pass over the
    uncovered leaves plus, per node its path adds, the leaves that node
    spans.
    """
    tree = ScheduleTree(root=grid.root)
    # A leaf's cheapest anchor is the tree node containing it with the
    # largest surplus (telescoping weights), the first in node order
    # among equals: the minimum of (-size, node).  It is kept per
    # uncovered leaf and updated against the nodes each committed path
    # adds, never rescanned against the whole tree.
    root_key = (-grid.surplus_size(grid.root), grid.root)
    anchors = {leaf: root_key for leaf in grid.leaves if leaf != grid.root}
    leaf_size = {leaf: grid.surplus_size(leaf) for leaf in anchors}
    while anchors:
        # Cheapest leaf, the first in leaf order among equals.
        leaf = min(anchors, key=lambda x: leaf_size[x] + anchors[x][0])
        _, anchor = anchors.pop(leaf)
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
                key = (-grid.surplus_size(child), child)
                for x in range(child[0], child[1] + 1):
                    if (x, x) in anchors and key < anchors[(x, x)]:
                        anchors[(x, x)] = key
    if compress:
        tree = tree.compressed(grid)
    tree.validate(grid)
    return tree


def agglomerative_schedule(grid: TriangularGrid, compress: bool = True) -> ScheduleTree:
    """Bottom-up schedule construction (an extension beyond the paper).

    Start from the Direct-Hop star and repeatedly apply the best
    cost-reducing move until none exists:

    * **merge** — two siblings are re-hung under the ICG spanning both
      (gain = ``|surplus(span)| − |surplus(parent)|``, the additions the
      pair now shares);
    * **adopt** — a node moves under a sibling that contains it
      (gain = ``|surplus(sibling)| − |surplus(parent)|``).

    Cost strictly decreases with each move, so termination is
    guaranteed.  In the ablation this typically closes most of the gap
    between the paper's greedy Steiner heuristic and the exact optimum.
    """
    tree = direct_hop_tree(grid)
    while True:
        children = tree.children_map()
        best: Optional[Tuple[int, str, Interval, Interval, Interval]] = None
        for parent, kids in children.items():
            if len(kids) < 2:
                continue
            parent_size = grid.surplus_size(parent)
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    if TriangularGrid.contains(a, b) and a != b:
                        gain = grid.surplus_size(a) - parent_size
                        if gain > 0 and (best is None or gain > best[0]):
                            best = (gain, "adopt", a, b, a)
                        continue
                    if TriangularGrid.contains(b, a):
                        gain = grid.surplus_size(b) - parent_size
                        if gain > 0 and (best is None or gain > best[0]):
                            best = (gain, "adopt", b, a, b)
                        continue
                    span = (min(a[0], b[0]), max(a[1], b[1]))
                    if span == parent or not grid.is_node(span):
                        continue
                    gain = grid.surplus_size(span) - parent_size
                    if gain > 0 and (best is None or gain > best[0]):
                        best = (gain, "merge", a, b, span)
        if best is None:
            break
        _, kind, a, b, target = best
        if kind == "adopt":
            tree.parent[b] = target
        else:
            parent = tree.parent[a]
            if not tree.contains_node(target):
                tree.parent[target] = parent
            tree.parent[a] = target
            tree.parent[b] = target
    if compress:
        tree = tree.compressed(grid)
    tree.validate(grid)
    return tree


def _optimal_tree_over(
    grid: TriangularGrid, nodes: Iterable[Interval]
) -> Tuple[int, ScheduleTree]:
    """Best tree on a fixed node set: each node hangs off its deepest
    containing node in the set (weights telescope, so this is optimal
    for the given set)."""
    nodes = list(nodes)
    tree = ScheduleTree(root=grid.root)
    cost = 0
    for node in nodes:
        if node == grid.root:
            continue
        best_parent = None
        best_size = -1
        for other in nodes:
            if other != node and TriangularGrid.contains(other, node):
                size = grid.surplus_size(other)
                if size > best_size:
                    best_parent, best_size = other, size
        if best_parent is None:
            raise ScheduleError(f"{node} has no containing node in the set")
        tree.parent[node] = best_parent
        cost += grid.surplus_size(node) - best_size
    return cost, tree


def exact_steiner(grid: TriangularGrid, max_snapshots: int = 6) -> ScheduleTree:
    """Optimal schedule by exhaustive search over intermediate node sets.

    Exponential in the number of intermediate grid nodes; refuses to run
    beyond ``max_snapshots`` snapshots.
    """
    if grid.n > max_snapshots:
        raise ScheduleError(
            f"exact Steiner is exponential; n={grid.n} exceeds "
            f"max_snapshots={max_snapshots}"
        )
    terminals = [grid.root] + [l for l in grid.leaves if l != grid.root]
    intermediates = [
        node
        for node in grid.nodes()
        if node != grid.root and node not in grid.leaves
    ]
    best_cost = None
    best_tree = None
    for r in range(len(intermediates) + 1):
        for subset in combinations(intermediates, r):
            cost, tree = _optimal_tree_over(grid, terminals + list(subset))
            if best_cost is None or cost < best_cost:
                best_cost, best_tree = cost, tree
    assert best_tree is not None
    best_tree = best_tree.compressed(grid)
    best_tree.validate(grid)
    return best_tree


#: Strategy name -> schedule constructor; the only place names resolve.
_BUILDERS: Dict[str, Callable[[TriangularGrid], ScheduleTree]] = {
    "direct-hop": direct_hop_tree,
    "work-sharing": partial(split_schedule, fanout=SPLIT_FANOUT),
    "greedy": greedy_steiner,
    "agglomerative": agglomerative_schedule,
    "exact": exact_steiner,
}

#: Every strategy name, for callers that offer a choice (the CLI).
STRATEGIES = tuple(_BUILDERS)


def schedule_builder(strategy: str) -> Callable[[TriangularGrid], ScheduleTree]:
    """The schedule constructor ``strategy`` names (see :func:`build_schedule`).

    For callers that learn the name before they have a grid: an unknown
    name raises :class:`ScheduleError` here, not at the first build.
    """
    try:
        return _BUILDERS[strategy]
    except KeyError:
        raise ScheduleError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{', '.join(map(repr, _BUILDERS))}"
        ) from None


def build_schedule(grid: TriangularGrid, strategy: str = "work-sharing") -> ScheduleTree:
    """Build a schedule by strategy name.

    ``"direct-hop"``, ``"work-sharing"`` (the four-way range split
    over bypass edges, the default everywhere), ``"greedy"`` (the paper's greedy
    Steiner + bypass, for the ablation), ``"agglomerative"`` (bottom-up
    extension) or ``"exact"`` (small inputs only).
    """
    return schedule_builder(strategy)(grid)
