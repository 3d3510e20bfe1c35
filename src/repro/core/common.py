"""The CommonGraph decomposition: shared core plus per-snapshot surplus.

Given snapshots ``G_0..G_{n-1}``, the *common graph* ``Gc`` is the set
of edges present in **every** snapshot.  Each snapshot is then
``Gc ∪ surplus_i`` where ``surplus_i = E_i − Gc`` is small (bounded by
the total churn of the update stream).  This converts every deletion
into an addition: starting from ``Gc``, any snapshot is reached by
adding its surplus (§2.2 of the paper).

The same decomposition underlies the Triangular Grid: the intermediate
common graph of a consecutive range ``i..j`` is
``Gc ∪ interval_surplus(i, j)`` where ``interval_surplus(i, j) =
⋂_{t∈[i,j]} surplus_t`` — all the interesting set algebra happens on
the *small* surplus sets, never on full edge sets.

A decomposition also owns the **plan**: everything an evaluation needs
that does not depend on the query (§3.2, §4.1 — the schedule is built
once per window, the common graph and every Δ batch are stored as CSRs
once).  :meth:`CommonGraphDecomposition.plan` memoises it beside the
interval surpluses; :mod:`repro.core.engine` says what goes in.
"""

from __future__ import annotations

import functools
import threading
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from repro.errors import DeltaError, SnapshotError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import WeightFn

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.evolving
    from repro.evolving.delta import DeltaBatch
    from repro.evolving.snapshots import EvolvingGraph

__all__ = ["CommonGraphDecomposition"]


class CommonGraphDecomposition:
    """Common graph + per-snapshot surplus edge sets.

    Build with :meth:`from_evolving` or :meth:`from_snapshots`.

    The interval-surplus memo and the plan memo are guarded by a lock,
    so a decomposition may be shared by concurrent readers
    (``interval_surplus`` / ``plan`` from several threads); the common
    graph and the surplus lists themselves are never mutated after
    construction, and ``restrict`` / ``extended`` read nothing else —
    the decomposition they return starts with both memos empty.
    """

    def __init__(
        self,
        num_vertices: int,
        common: EdgeSet,
        surpluses: Sequence[EdgeSet],
    ) -> None:
        if not surpluses:
            raise SnapshotError("decomposition needs at least one snapshot")
        for s in surpluses:
            if not s.isdisjoint(common):
                raise SnapshotError("surplus overlaps the common graph")
        self.num_vertices = int(num_vertices)
        self.common = common
        self.surpluses: List[EdgeSet] = list(surpluses)
        #: ``(departed, rejoined)``: the common edges lost and gained
        #: against the decomposition this one was :meth:`extended` from
        #: (``None`` when built any other way).
        self.moved: Optional[Tuple[EdgeSet, EdgeSet]] = None
        self._interval_cache: Dict[Tuple[int, int], EdgeSet] = {}
        self._plan: Dict[Hashable, Any] = {}
        # Guards the two memos only: lazy inserts from concurrent
        # queries race with each other (nothing iterates the memos).
        # Never held while computing.
        self._cache_lock = threading.Lock()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_snapshots(
        cls, num_vertices: int, snapshots: Sequence[EdgeSet]
    ) -> "CommonGraphDecomposition":
        """Decompose explicit snapshot edge sets."""
        if not snapshots:
            raise SnapshotError("need at least one snapshot")
        common = snapshots[0]
        for edges in snapshots[1:]:
            common = common & edges
        surpluses = [edges - common for edges in snapshots]
        return cls(num_vertices, common, surpluses)

    @classmethod
    def from_evolving(cls, evolving: "EvolvingGraph") -> "CommonGraphDecomposition":
        """Decompose an evolving graph.

        Uses the stream structure for efficiency: an edge is common iff
        it is in snapshot 0 and never touched by any batch (§4.1 — new
        edges, both additions and deletions, are removed from the
        common graph).
        """
        touched = EdgeSet.empty()
        for batch in evolving.batches:
            touched = touched | batch.additions | batch.deletions
        base = evolving.snapshot_edges(0)
        # No touched edge is ever common, so the stream can be replayed
        # on the surpluses alone (surplus_t = E_t ∩ touched): a batch
        # validates against the surplus exactly as it would against the
        # full snapshot, and no snapshot is materialised.
        surpluses = [base & touched]
        for batch in evolving.batches:
            surpluses.append(batch.apply(surpluses[-1], strict=evolving.strict))
        return cls(evolving.num_vertices, base - touched, surpluses)

    # -- incremental growth -------------------------------------------------
    def extended(self, batch: "DeltaBatch",
                 drop: int = 0) -> "CommonGraphDecomposition":
        """One more snapshot (the tip plus ``batch``), minus the oldest ``drop``.

        Per §4.1 only the edges the batch touches move.  The deleted
        common edges *depart*: they were in every old snapshot, so they
        join every old surplus.  The edges every kept snapshot has
        *rejoin* the common graph — a shrinking intersection of the kept
        surpluses, empty unless the window slid.  All of it is O(batch +
        window × churn) plus the copies of the common graph.

        The batch must fit the tip exactly (``DeltaError`` otherwise),
        checked by membership: additions against the common graph here,
        the rest by applying the batch to the tip's surplus.  The result's
        :attr:`moved` holds the departed and rejoined edges.
        """
        if batch.additions.max_vertex() >= self.num_vertices:
            raise SnapshotError("batch references vertex out of range")
        if not 0 <= drop <= self.num_snapshots:
            raise SnapshotError(
                f"cannot drop {drop} of {self.num_snapshots + 1} snapshots")
        if not batch.additions.isdisjoint(self.common):
            raise DeltaError("additions already present in the common graph")
        departed = batch.deletions & self.common
        surpluses = [s | departed for s in self.surpluses]
        surpluses.append(batch.apply(surpluses[-1], strict=True))
        surpluses = surpluses[drop:]
        common = self.common - departed if departed else self.common
        rejoined = functools.reduce(EdgeSet.intersection, surpluses)
        if rejoined:
            common = common | rejoined
            surpluses = [s - rejoined for s in surpluses]
        result = CommonGraphDecomposition(self.num_vertices, common, surpluses)
        result.moved = (departed, rejoined)
        return result

    # -- shape ------------------------------------------------------------
    @property
    def num_snapshots(self) -> int:
        return len(self.surpluses)

    def snapshot_edges(self, index: int) -> EdgeSet:
        """Full edge set of snapshot ``index``."""
        return self.common | self.surpluses[index]

    # -- interval surpluses (Triangular Grid support) -----------------------
    def interval_surplus(self, i: int, j: int) -> EdgeSet:
        """Surplus of the intermediate common graph for snapshots ``i..j``.

        ``ICG(i, j) = Gc ∪ interval_surplus(i, j)``; computed by
        intersecting surpluses and memoised.  ``interval_surplus(0,
        n-1)`` is empty by construction.
        """
        n = self.num_snapshots
        if not 0 <= i <= j < n:
            raise SnapshotError(f"invalid interval ({i}, {j}) for {n} snapshots")
        key = (i, j)
        with self._cache_lock:
            cached = self._interval_cache.get(key)
        if cached is not None:
            return cached
        if i == j:
            result = self.surpluses[i]
        else:
            # Split anywhere; halving keeps the memo reusable.
            mid = (i + j) // 2
            result = self.interval_surplus(i, mid) & self.interval_surplus(mid + 1, j)
        # A concurrent thread may have raced us to the same key; both
        # computed the same immutable value, so last-write-wins is fine.
        with self._cache_lock:
            self._interval_cache[key] = result
        return result

    def interval_edges(self, i: int, j: int) -> EdgeSet:
        """Full edge set of the intermediate common graph for ``i..j``."""
        return self.common | self.interval_surplus(i, j)

    def restrict(self, first: int, last: int) -> "CommonGraphDecomposition":
        """Sub-decomposition for the snapshot range ``first..last``.

        The restricted common graph is the range's intermediate common
        graph ``ICG(first, last)`` — a *superset* of the global ``Gc`` —
        so range queries start from a larger shared core and stream
        fewer additions per snapshot.  This realises the range-query
        direction sketched in the paper's concluding remarks: a window
        query needs no walk from the initial snapshot.
        """
        n = self.num_snapshots
        if not 0 <= first <= last < n:
            raise SnapshotError(f"invalid range ({first}, {last}) for {n} snapshots")
        range_surplus = self.interval_surplus(first, last)
        common = self.common | range_surplus
        surpluses = [
            self.surpluses[t] - range_surplus for t in range(first, last + 1)
        ]
        return CommonGraphDecomposition(self.num_vertices, common, surpluses)

    # -- the plan ---------------------------------------------------------------
    def plan(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The memoised query-independent value ``key`` names.

        ``build()`` runs on a miss, outside the lock; of two threads
        that race to the same key both get the value stored first.  The
        memo is bounded the way the grid is — schedules by (strategy,
        range), node graphs by grid node, batches by the tree edges of
        those schedules — and dies with the decomposition: ``extended``
        and ``restrict`` return one with an empty plan.
        """
        with self._cache_lock:
            held = self._plan.get(key)
        if held is not None:
            return held
        value = build()
        with self._cache_lock:
            return self._plan.setdefault(key, value)

    # -- materialisation -----------------------------------------------------
    def common_csr(self, weight_fn: Optional[WeightFn] = None) -> CSRGraph:
        """The common graph in CSR form."""
        return CSRGraph.from_edge_set(self.common, self.num_vertices, weight_fn=weight_fn)

    def delta_csr(self, edges: EdgeSet, weight_fn: Optional[WeightFn] = None) -> CSRGraph:
        """A Δ batch in CSR form, ready to overlay on the common graph."""
        return CSRGraph.from_edge_set(edges, self.num_vertices, weight_fn=weight_fn)

    def direct_hop_batch(self, index: int) -> EdgeSet:
        """The additions needed to hop from ``Gc`` to snapshot ``index``."""
        return self.surpluses[index]

    def diff(self, a: int, b: int) -> "DeltaBatch":
        """The delta batch transforming snapshot ``a`` into snapshot ``b``.

        Computed on the small surplus sets; the common graph cancels.
        """
        from repro.evolving.delta import DeltaBatch  # cycle: see the top

        n = self.num_snapshots
        if not (0 <= a < n and 0 <= b < n):
            raise SnapshotError(f"snapshot out of range: ({a}, {b}) of {n}")
        sa, sb = self.surpluses[a], self.surpluses[b]
        return DeltaBatch(additions=sb - sa, deletions=sa - sb)

    def total_direct_hop_additions(self) -> int:
        """Cost (in additions) of the Direct-Hop schedule."""
        return sum(len(s) for s in self.surpluses)

    def storage_edges(self) -> int:
        """Edges stored by the common-graph representation.

        The paper's §4.1 space claim: the common graph plus the per-
        snapshot surplus batches stores each edge once per *distinct*
        role, versus ``num_snapshots`` copies for one-CSR-per-snapshot
        storage.
        """
        return len(self.common) + sum(len(s) for s in self.surpluses)

    def snapshot_storage_edges(self) -> int:
        """Edges stored if every snapshot kept its own full CSR.

        Every surplus is disjoint from the common graph (checked at
        construction), so snapshot ``i`` holds ``|Gc| + |surplus_i|``
        edges: counted without materialising one.
        """
        return self.num_snapshots * len(self.common) + sum(
            len(s) for s in self.surpluses)

    def __repr__(self) -> str:
        return (
            f"CommonGraphDecomposition(V={self.num_vertices}, "
            f"snapshots={self.num_snapshots}, |Gc|={len(self.common)})"
        )
