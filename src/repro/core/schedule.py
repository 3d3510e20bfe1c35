"""Query-evaluation schedules: trees over Triangular-Grid nodes.

A schedule tells the engine how to reach every snapshot from the common
graph: it is a tree rooted at ``Gc`` whose leaves are the snapshot
intervals ``(i, i)``; each edge carries a batch of edge additions.
Direct-Hop is the star schedule (root → every leaf); Work-Sharing
schedules route through intermediate common graphs to share additions.

:meth:`ScheduleTree.compressed` implements the paper's bypass step
(Compress-Steiner-Tree in Algorithm 1): interior nodes with exactly one
child are cut out and their incoming/outgoing batches merged, which
removes pointless stabilisation stops without changing total cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.triangular_grid import Interval, TriangularGrid
from repro.errors import ScheduleError

__all__ = ["ScheduleTree"]


@dataclass
class ScheduleTree:
    """A tree over TG intervals, stored as child → parent pointers.

    Edges may be grid-adjacent or containment "jumps" (produced by
    bypassing); either way the batch on edge ``(p, c)`` is
    ``surplus(c) − surplus(p)`` and its cost the size of that set.
    """

    root: Interval
    parent: Dict[Interval, Interval] = field(default_factory=dict)

    # -- structure ----------------------------------------------------------
    @property
    def nodes(self) -> List[Interval]:
        seen = {self.root}
        seen.update(self.parent.keys())
        seen.update(self.parent.values())
        return sorted(seen)

    def children_map(self) -> Dict[Interval, List[Interval]]:
        children: Dict[Interval, List[Interval]] = {n: [] for n in self.nodes}
        for child, parent in self.parent.items():
            children[parent].append(child)
        for lst in children.values():
            lst.sort()
        return children

    def levels(self) -> Iterator[List[Tuple[Interval, Interval]]]:
        """The ``(parent, child)`` edges one level at a time, top-down:
        the edges of level ``d`` end at the nodes of depth ``d``, in the
        order of their parents, siblings sorted.  Linear in the tree.

        The edges of one level are independent once the level above has
        converged: this is the order the engine sweeps them in.
        """
        children: Dict[Interval, List[Interval]] = {}
        for child, parent in self.parent.items():
            children.setdefault(parent, []).append(child)
        reached = [self.root]
        while reached:
            level = [(node, child) for node in reached
                     for child in sorted(children.get(node, ()))]
            if level:
                yield level
            reached = [child for _, child in level]

    def edges(self) -> Iterator[Tuple[Interval, Interval]]:
        """(parent, child) pairs in top-down (BFS from root) order."""
        for level in self.levels():
            yield from level

    def contains_node(self, node: Interval) -> bool:
        return node == self.root or node in self.parent

    def add_edge(self, parent: Interval, child: Interval) -> None:
        if not self.contains_node(parent):
            raise ScheduleError(f"parent {parent} not in tree")
        if self.contains_node(child):
            raise ScheduleError(f"child {child} already in tree")
        self.parent[child] = parent

    # -- validation -----------------------------------------------------------
    def validate(self, grid: TriangularGrid) -> None:
        """Check this is a well-formed schedule for ``grid``.

        Raises :class:`ScheduleError` on: wrong root, a non-containment
        edge, a cycle/disconnection, or a missing snapshot leaf.
        """
        if self.root != grid.root:
            raise ScheduleError(f"root {self.root} != grid root {grid.root}")
        for child, parent in self.parent.items():
            if parent == child or not TriangularGrid.contains(parent, child):
                raise ScheduleError(f"edge {parent} -> {child} is not a containment")
            if not grid.is_node(child) or not grid.is_node(parent):
                raise ScheduleError(f"edge {parent} -> {child} leaves the grid")
        # Reachability from root == acyclicity + connectivity for a
        # parent-pointer forest.
        reached = set()
        for node in self.parent:
            trail = []
            cursor = node
            while cursor != self.root and cursor not in reached:
                if cursor in trail:
                    raise ScheduleError(f"cycle through {cursor}")
                trail.append(cursor)
                if cursor not in self.parent:
                    raise ScheduleError(f"{cursor} is disconnected from the root")
                cursor = self.parent[cursor]
            reached.update(trail)
        for leaf in grid.leaves:
            if not self.contains_node(leaf):
                raise ScheduleError(f"snapshot leaf {leaf} is not covered")

    # -- cost ------------------------------------------------------------------
    def cost(self, grid: TriangularGrid) -> int:
        """Total additions across all tree edges (the paper's metric)."""
        return sum(grid.weight(p, c) for p, c in self.edges())

    def num_stabilisations(self) -> int:
        """Incremental computations executed (one per tree edge)."""
        return len(self.parent)

    # -- bypass compression ------------------------------------------------------
    def compressed(self, grid: TriangularGrid) -> "ScheduleTree":
        """Bypass interior single-child nodes (Algorithm 1, step 3).

        Interior nodes that merely pass one batch to one child add a
        stabilisation stop without enabling any sharing; cutting them
        merges the two batches (cost is unchanged because weights
        telescope).  Leaves are never bypassed even if they also have a
        child in the tree.
        """
        children = self.children_map()
        leaves = set(grid.leaves)
        parent = dict(self.parent)
        for node in list(parent.keys()):
            if node in leaves or node == self.root:
                continue
            kids = children.get(node, [])
            if len(kids) == 1:
                # Splice: the child now hangs off this node's parent.
                parent[kids[0]] = parent[node]
                del parent[node]
                children[parent[kids[0]]] = [
                    kids[0] if c == node else c
                    for c in children[parent[kids[0]]]
                ]
        return ScheduleTree(root=self.root, parent=parent)

    def __repr__(self) -> str:
        return f"ScheduleTree(root={self.root}, edges={len(self.parent)})"
