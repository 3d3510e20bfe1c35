"""Version-control primitives for evolving graphs (Table 1 of the paper).

========================  ====================================================
API                       Description
========================  ====================================================
``get_version(number)``   Retrieve a snapshot (as a mutation-free overlay)
``diff(a, b)``            Difference between two snapshots as a delta batch
``new_version(Δ+, Δ−)``   Append a snapshot and update the common graph
========================  ====================================================

The controller keeps the common-graph decomposition in sync with the
snapshot stream: per §4.1, when a new snapshot arrives, the edges it
touches (additions *and* deletions) are removed from the common graph
and redistributed into the per-snapshot surplus sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.errors import SnapshotError

if TYPE_CHECKING:  # the evaluators import the kickstarter engine, which
    # imports this package; resolve them lazily at call time instead.
    from repro.core.results import EvolvingQueryResult
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import UnitWeights, WeightFn

__all__ = ["VersionController"]


class VersionController:
    """Snapshot version control backed by the CommonGraph representation."""

    def __init__(
        self,
        evolving: EvolvingGraph,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.evolving = evolving
        self.weight_fn: WeightFn = weight_fn if weight_fn is not None else UnitWeights()
        self._decomposition = CommonGraphDecomposition.from_evolving(evolving)

    # -- decomposition access ------------------------------------------------
    @property
    def decomposition(self) -> CommonGraphDecomposition:
        return self._decomposition

    @property
    def num_versions(self) -> int:
        return self.evolving.num_snapshots

    def common_csr(self) -> CSRGraph:
        """The shared common-graph CSR: the plan's, so the evaluators and
        every overlay read one copy (never mutated)."""
        from repro.core.engine import planned_graphs

        return planned_graphs(self._decomposition, self.weight_fn)[0]

    # -- Table 1 primitives -----------------------------------------------------
    def get_version(self, number: int) -> OverlayGraph:
        """Retrieve snapshot ``number`` as common graph + Δ overlay."""
        if not 0 <= number < self.num_versions:
            raise SnapshotError(
                f"version {number} out of range [0, {self.num_versions})"
            )
        surplus = self._decomposition.direct_hop_batch(number)
        delta_csr = self._decomposition.delta_csr(surplus, self.weight_fn)
        return OverlayGraph(self.common_csr(), (delta_csr,))

    def diff(self, a: int, b: int) -> DeltaBatch:
        """The delta batch transforming version ``a`` into version ``b``.

        Computed on the small surplus sets; the common graph cancels.
        """
        return self._decomposition.diff(a, b)

    def new_version(self, additions: EdgeSet, deletions: EdgeSet) -> int:
        """Create a new snapshot; returns its version number.

        The deleted common edges leave the common graph for the surplus
        sets (§4.1): :meth:`CommonGraphDecomposition.extended`, the one
        append rule, so existing overlays remain valid.
        """
        batch = DeltaBatch(additions=additions, deletions=deletions)
        self.evolving.append_batch(batch)
        if not self.evolving.strict:
            # What the batch does to the old tip: a re-added or already
            # absent edge moves nothing.
            tip = self.evolving.snapshot_edges(-2)
            batch = DeltaBatch(additions - tip, deletions & tip)
        self._decomposition = self._decomposition.extended(batch)
        return self.num_versions - 1

    # -- query evaluation ---------------------------------------------------
    def evaluate(
        self,
        algorithm: MonotonicAlgorithm,
        source: int,
        first: int = 0,
        last: int = -1,
        strategy: str = "work-sharing",
    ) -> "EvolvingQueryResult":
        """Answer a query on a (range of) snapshot(s) in one call.

        ``first..last`` (inclusive; ``last=-1`` means the latest
        version) selects the window.  The window is evaluated from its
        own intermediate common graph rather than the global one (the
        walk starts at grid node ``(first, last)``), so a late, narrow
        window never pays for history before it — the range-query
        capability the paper's conclusion calls out.
        ``result.snapshot_values[k]`` holds version ``first + k``.
        ``strategy`` is any schedule name
        :func:`~repro.core.steiner.build_schedule` knows.
        """
        from repro.core.engine import WorkSharingEvaluator, planned_schedule

        if last < 0:
            last += self.num_versions
        if not 0 <= first <= last < self.num_versions:
            raise SnapshotError(
                f"invalid range ({first}, {last}) for {self.num_versions} versions"
            )
        return WorkSharingEvaluator(
            self._decomposition, algorithm, source, weight_fn=self.weight_fn,
            schedule=planned_schedule(self._decomposition, strategy,
                                      first, last),
            first=first, last=last,
        ).run()

    def __repr__(self) -> str:
        return (
            f"VersionController(versions={self.num_versions}, "
            f"|Gc|={len(self._decomposition.common)})"
        )
