"""The Triangular Grid (TG) representation (§3.2, Figure 5).

Nodes are intervals ``(i, j)`` of consecutive snapshots; node ``(i, j)``
stands for the intermediate common graph ``ICG(i, j)`` (the common graph
of snapshots ``i..j``).  The root ``(0, n-1)`` is the CommonGraph
``Gc``; leaves ``(i, i)`` are the original snapshots.  Each grid edge
connects ``(i, j)`` to ``(i, j-1)`` or ``(i+1, j)`` and is labelled with
the *additions* that grow the parent ICG into the child ICG — all
downward motion in the grid is additions-only.

Key structural facts used throughout (and asserted in tests):

* ``ICG(parent) ⊆ ICG(child)``, so the label is ``child − parent`` and
  the edge weight is ``|child| − |parent|``;
* consequently every downward path between two fixed nodes has the same
  total weight (the weights telescope), and the Steiner-tree structure
  is entirely about *which* intermediate nodes are shared.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.common import CommonGraphDecomposition
from repro.errors import ScheduleError
from repro.graph.edgeset import EdgeSet

__all__ = ["Interval", "TriangularGrid"]

#: A TG node: an inclusive range of snapshot indices.
Interval = Tuple[int, int]


class TriangularGrid:
    """Triangular Grid over a :class:`CommonGraphDecomposition`.

    :meth:`subgrid` gives the grid below one node, in the same
    coordinates: a snapshot range is evaluated on the sub-grid rooted at
    its ICG, with no second decomposition.
    """

    def __init__(self, decomposition: CommonGraphDecomposition) -> None:
        self.decomposition = decomposition
        self.first = 0
        self.n = decomposition.num_snapshots

    def subgrid(self, first: int, last: int) -> "TriangularGrid":
        """The grid rooted at node ``(first, last)``, leaves ``first..last``.

        Every surplus in it exceeds the one a
        :meth:`~CommonGraphDecomposition.restrict`-ed decomposition
        would report by the same set, ``surplus((first, last))``, so
        labels and weights — and therefore schedules, which compare only
        weight differences — are the restricted grid's, shifted by
        ``first``.
        """
        self._check((first, last))
        sub = TriangularGrid(self.decomposition)
        sub.first, sub.n = first, last - first + 1
        return sub

    # -- structure ----------------------------------------------------------
    @property
    def root(self) -> Interval:
        return (self.first, self.first + self.n - 1)

    @property
    def leaves(self) -> List[Interval]:
        return [(i, i) for i in range(self.first, self.first + self.n)]

    def is_node(self, node: Interval) -> bool:
        i, j = node
        return self.first <= i <= j < self.first + self.n

    def _check(self, node: Interval) -> None:
        if not self.is_node(node):
            raise ScheduleError(
                f"{node} is not a node of the TG rooted at {self.root}")

    def nodes(self) -> Iterator[Interval]:
        """All nodes, root first (longest intervals first)."""
        for span in range(self.n - 1, -1, -1):
            for i in range(self.first, self.first + self.n - span):
                yield (i, i + span)

    def num_nodes(self) -> int:
        return self.n * (self.n + 1) // 2

    def children(self, node: Interval) -> List[Interval]:
        """Grid children: one-snapshot-shorter intervals (0, 1 or 2)."""
        self._check(node)
        i, j = node
        if i == j:
            return []
        if j - i == 1:
            return [(i, i), (j, j)]
        return [(i, j - 1), (i + 1, j)]

    def parents(self, node: Interval) -> List[Interval]:
        """Grid parents: one-snapshot-longer intervals within range."""
        self._check(node)
        i, j = node
        result = []
        if i > self.first:
            result.append((i - 1, j))
        if j < self.first + self.n - 1:
            result.append((i, j + 1))
        return result

    @staticmethod
    def contains(outer: Interval, inner: Interval) -> bool:
        """Is ``inner`` a (not necessarily proper) sub-interval of ``outer``?"""
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    # -- labels and weights ----------------------------------------------------
    def surplus(self, node: Interval) -> EdgeSet:
        """Edges of ``ICG(node)`` beyond the root common graph."""
        self._check(node)
        return self.decomposition.interval_surplus(*node)

    def surplus_size(self, node: Interval) -> int:
        return len(self.surplus(node))

    def label(self, parent: Interval, child: Interval) -> EdgeSet:
        """Additions converting ``ICG(parent)`` into ``ICG(child)``.

        Valid for any containment pair (grid-adjacent or a bypass jump).
        """
        self._check(parent)
        self._check(child)
        if parent == child or not self.contains(parent, child):
            raise ScheduleError(f"{child} is not contained in {parent}")
        return self.surplus(child) - self.surplus(parent)

    def weight(self, parent: Interval, child: Interval) -> int:
        """Number of additions on the (possibly bypassing) edge."""
        self._check(parent)
        self._check(child)
        if parent == child or not self.contains(parent, child):
            raise ScheduleError(f"{child} is not contained in {parent}")
        return self.surplus_size(child) - self.surplus_size(parent)

    def grid_edges(self) -> Iterator[Tuple[Interval, Interval]]:
        """All (parent, child) grid-adjacent edges."""
        for node in self.nodes():
            for child in self.children(node):
                yield node, child

    def __repr__(self) -> str:
        return f"TriangularGrid(n={self.n}, nodes={self.num_nodes()})"
