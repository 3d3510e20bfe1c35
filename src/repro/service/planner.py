"""The memoizing query planner: work-sharing with cross-query reuse.

The offline :class:`~repro.core.engine.WorkSharingEvaluator` shares
interior-ICG states *within* one query.  The planner extends that
sharing *across* queries: it runs the same schedule walk with a
node-state store, so the converged :class:`VertexState` at every
Triangular-Grid node a schedule visits is cached, keyed by
``(algorithm, source, epoch, node)`` in window coordinates, and a later
query whose schedule passes through a cached node resumes from it —
no static recompute at the window root, no re-streaming of the path
above the node.  The walk consults the store per row of each sweep: a
held node fills its row and contributes no seeds, every computed row is
``put``.  A range is walked on the window decomposition itself (the
sub-grid rooted at the range's node), so the walk's nodes *are* window
nodes, and the schedule, its sweeps and the two graphs every query
needs come from the decomposition's plan, built once per epoch.

The cache does not hold a dense vector per node.  Most vertices keep
one value across a snapshot range, so the states one walk stores are
kept as that walk's *base* — one dense copy of the first state it
stores, its root on a cold walk — plus, per node, the few cells that
differ (:func:`node_state_cache`); a hit rebuilds a fresh dense state.

Correctness rests on the same fixpoint property as the paper's
evaluators: for a monotonic algorithm, the converged state on
``ICG(i, j)`` from a given source is *unique*, regardless of which
ancestor state the incremental computation started from.  A resumed
walk therefore produces values bit-identical to a cold one (the
service's end-to-end test asserts exactly this against the naive
oracle), and the walk's graph rule — a row is the common CSR plus the
Δ edges present throughout its node's snapshots — depends on the node
alone, never on the path that reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.core.results import changed_cells
from repro.core.triangular_grid import Interval
from repro.graph.weights import WeightFn
# ``static_compute`` is not called here (the walk calls it): the perf
# harness's self-test, frozen under benchmarks/perf, reads
# ``planner.static_compute`` to check that importers of a traced kernel
# are patched too.
from repro.kickstarter.engine import VertexState, static_compute  # noqa: F401
from repro.service.cache import LRUCache

__all__ = ["MemoizingPlanner", "PlannedAnswer", "node_state_cache"]

#: Cache key of a converged state at a TG node, in window coordinates.
NodeKey = Tuple[str, int, int, Interval]


@dataclass
class PlannedAnswer:
    """One planned evaluation: per-snapshot values plus reuse accounting."""

    values: List[np.ndarray] = field(default_factory=list)
    additions_processed: int = 0
    stabilisations: int = 0
    node_hits: int = 0
    node_misses: int = 0


def _compact_state(anchored: Tuple[np.ndarray, VertexState]) -> Any:
    """``(base, state)`` → ``(base, indices, cells, source)``: ``base`` by
    reference, the differing cells copied.  Parents keep a state dense."""
    base, state = anchored
    if state.parents is not None:
        return state.copy()
    return (base, *changed_cells(base, state.values), state.source)


def _expand_state(entry: Any) -> VertexState:
    """A fresh dense state from a cache entry; aliases nothing."""
    if isinstance(entry, VertexState):
        return entry.copy()
    base, indices, cells, source = entry
    values = base.copy()
    values[indices] = cells
    return VertexState(values=values, source=source)


def node_state_cache(max_entries: int) -> LRUCache:
    """The node-state cache: ``put`` takes ``(base, state)``, ``get``
    returns a fresh :class:`VertexState`; an entry is *base + sparse Δ*.

    The entries of one walk share one dense ``base`` by reference (so
    evicting any of them cannot orphan another) and each holds only the
    cells that differ; ``base`` is never written after the first ``put``.
    """
    return LRUCache(max_entries, copy_in=_compact_state,
                    copy_out=_expand_state)


@dataclass
class _EpochView:
    """The node cache as one walk's store: window nodes in,
    ``(algorithm, source, epoch, window node)`` keys out.  The first
    state the walk stores — its root, on a cold walk — is copied once as
    the ``base`` every entry of this walk is a sparse Δ against."""

    cache: LRUCache
    algorithm: str
    source: int
    epoch: int
    base: Optional[np.ndarray] = None

    def key(self, node: Interval) -> NodeKey:
        return (self.algorithm, self.source, self.epoch, node)

    def get(self, node: Interval) -> Optional[VertexState]:
        return self.cache.get(self.key(node))

    def put(self, node: Interval, state: VertexState) -> None:
        if self.base is None:
            self.base = state.values.copy()
        self.cache.put(self.key(node), (self.base, state))


class MemoizingPlanner:
    """Plans and executes range queries against a node-state cache.

    The planner itself is stateless between calls apart from the shared
    ``node_cache`` (a :func:`node_state_cache`); the caller (the service state) owns epochs and the
    full-result cache.
    """

    def __init__(
        self,
        node_cache: LRUCache,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.node_cache = node_cache
        self.weight_fn = weight_fn

    def evaluate(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        first: int,
        last: int,
        epoch: int,
    ) -> PlannedAnswer:
        """Answer ``algorithm`` from ``source`` on snapshots ``first..last``.

        ``first``/``last`` are indices into ``decomposition`` (the
        service window); cache keys carry the same coordinates plus the
        epoch, so entries die with the decomposition that produced them.
        """
        with obs.phase_span("planner", "evaluate",
                            label=f"{algorithm.name}:{source}",
                            first=first, last=last, epoch=epoch) as plan_span:
            walk = WorkSharingEvaluator(
                decomposition, algorithm, source,
                weight_fn=self.weight_fn, first=first, last=last,
            ).run(
                store=_EpochView(self.node_cache, algorithm.name, source,
                                 epoch),
                layer="planner",
            )
            plan_span.annotate(node_hits=walk.node_hits,
                               node_misses=walk.node_misses)
        return PlannedAnswer(
            values=[values.copy() for values in walk.snapshot_values],
            additions_processed=walk.additions_processed,
            stabilisations=walk.stabilisations,
            node_hits=walk.node_hits,
            node_misses=walk.node_misses,
        )
