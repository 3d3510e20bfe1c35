"""Live-tip overlay: sub-batch per-update ingest over the tip snapshot.

The Triangular Grid makes *batch*-granular evolving analytics cheap,
but a single-edge change still costs a whole TG column (a durable
store append plus an incremental extension).  :class:`LiveTipOverlay`
absorbs single-edge updates without touching the grid, and a read at
the tip patches the grid's answer by them:

* the overlay anchors on the decomposition whose tip it overlays, and
  the live edge set is that tip plus the update log: an update decides
  membership against the anchor and the edges the log touched, and
  copies only the log and its touched edges (at most the fold
  threshold) — it validates and logs, builds no graph and repairs no
  query state; the live set is materialised only by
  :meth:`~LiveTipOverlay.live_edges` and a from-scratch capture;
* a patched read starts from the TG's own converged tip column (the
  paper's idea 1 applied to the tip) and pushes the log's net additions
  on the TG's own graph for the tip — the plan's common CSR and
  :class:`~repro.graph.stacked.IntervalDelta` as a one-row
  :class:`~repro.graph.stacked.StackedGraph`, beside a CSR of only the
  additions — then every net deletion must pass RisGraph's safe test
  (it supports no repaired value).  An unsafe deletion falls back to
  one from-scratch compute on the materialised live set.

The overlay is an *overlay*: the Triangular Grid below it never sees
individual updates.  The update log is periodically folded into one
real batch by the :class:`~repro.livetip.compactor.Compactor`, after
which :meth:`rebase_onto` re-anchors the overlay on the new tip —
pending updates whose effect the new tip already contains are dropped
as satisfied, the rest are replayed.  Values are **bit-identical** to
batch recomputation throughout: the repair is exact for the monotonic
algorithm classes the engine serves, and the equivalence is
hypothesis-tested across interleavings in ``tests/livetip/``.

Thread model: an overlay is a value.  :meth:`~LiveTipOverlay.apply_update`
and :meth:`~LiveTipOverlay.rebase_onto` return the successor and leave
the overlay they were called on as it was, so the overlay holds no lock
and a reader needs none: whoever publishes overlays (the service state,
beside the decomposition each one is anchored on) serialises the
writers.  A capture holds only immutable inputs — the anchor
decomposition, its tip edge set and the log's net batch — so its
resolve, repair and fallback alike, answers for the overlay it was
taken from whatever is published after it.  Determinism: the module is
in the lint determinism scope — no wall clock here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import planned_graphs
from repro.errors import ProtocolError
from repro.evolving.delta import DeltaBatch
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, encode_edges
from repro.graph.overlay import OverlayGraph
from repro.graph.stacked import StackedGraph
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.engine import (
    VertexState,
    incremental_additions,
    static_compute,
)

__all__ = ["LiveTipOverlay", "TipCapture", "TipUpdate", "UPDATE_KINDS"]

#: Update kinds the overlay absorbs.  ``compact`` is a wire-level verb
#: handled by the service (it drives the Compactor, not the overlay).
UPDATE_KINDS = ("insert", "delete")


@dataclass(frozen=True)
class TipUpdate:
    """One absorbed single-edge update, as logged for compaction."""

    seq: int
    kind: str
    edge: Tuple[int, int]


def _live(base: EdgeSet, net: DeltaBatch) -> EdgeSet:
    """The live edge set: the anchored tip ``base`` with ``net`` applied."""
    return base.union(net.additions).difference(net.deletions)


def _tip_edges(decomposition: CommonGraphDecomposition) -> EdgeSet:
    return decomposition.snapshot_edges(decomposition.num_snapshots - 1)


def _supports_a_value(
    alg: MonotonicAlgorithm,
    values: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> bool:
    """RisGraph's safe test for deletions, over converged ``values``.

    An edge supports its target when its proposal *is* the target's
    value.  Deleting only non-supporting edges leaves the fixpoint
    unchanged: every value keeps a supporting in-edge, and none of the
    five algorithms proposes a value better than its input, so no
    support can be circular.
    """
    return bool(np.any(alg.proposals(values[sources], weights)
                       == values[targets]))


class TipCapture:
    """A consistent snapshot of the live tip for one ``(algorithm, source)``.

    It holds the anchor decomposition, its tip edge set and the log's
    small net batch — all immutable — so resolving takes no lock: it
    repairs the TG's converged tip column by the net batch when that is
    exact, else computes from scratch on the materialised live set.
    """

    def __init__(
        self,
        *,
        seq: int,
        tip_version: int,
        depth: int,
        alg: MonotonicAlgorithm,
        source: int,
        anchor: CommonGraphDecomposition,
        base: EdgeSet,
        net: DeltaBatch,
        weight_fn: WeightFn,
    ) -> None:
        self.seq = seq
        self.tip_version = tip_version
        self.depth = depth
        self._alg = alg
        self._source = source
        self._anchor = anchor
        self._base = base
        self._net = net
        self._weight_fn = weight_fn
        self._values: Optional[np.ndarray] = None

    def resolve(self, tip_values: Optional[np.ndarray] = None) -> np.ndarray:
        """The tip values (a fresh copy; computes at most once).

        ``tip_values`` is the anchored tip's converged column (the last
        row of the TG walk the read already ran); the capture starts
        from it when it can.
        """
        if self._values is None:
            self._values = self._compute(tip_values)
        return self._values.copy()

    def _compute(self, tip_values: Optional[np.ndarray]) -> np.ndarray:
        net = self._net
        repaired = None if tip_values is None else self._repair(tip_values)
        obs.annotate(livetip_repair="fallback" if repaired is None else "tg",
                     livetip_additions=len(net.additions),
                     livetip_deletions=len(net.deletions))
        if repaired is not None:
            return repaired
        graph = CSRGraph.from_edge_set(
            _live(self._base, net), self._anchor.num_vertices,
            weight_fn=self._weight_fn,
        )
        return static_compute(graph, self._alg, self._source).values

    def _repair(self, tip_values: np.ndarray) -> Optional[np.ndarray]:
        """The anchored tip's converged ``tip_values`` repaired to the
        live tip, or ``None`` when that is not exact.

        The paper's idea 1 on the tip: pushing the net additions from
        the tip's fixpoint, on the tip graph with them, converges to
        the fixpoint of the tip plus the additions (additions only, as
        in every hop of the walk).  When then no net deletion supports
        a value (:func:`_supports_a_value`), that is also the fixpoint
        without them: the live graph's.
        """
        alg, anchor, weight_fn = self._alg, self._anchor, self._weight_fn
        state = VertexState(values=tip_values.copy(), source=self._source)
        sources, targets = self._net.additions.arrays()
        if sources.size:
            weights = weight_fn(sources, targets)
            common, delta = planned_graphs(anchor, weight_fn)
            tip = anchor.num_snapshots - 1
            graph = OverlayGraph(
                StackedGraph(common, delta, [(tip, tip)]),
                (CSRGraph.from_edges(sources, targets, anchor.num_vertices,
                                     weights=weights),),
            )
            incremental_additions(graph, alg, state, sources, targets,
                                  weights, mode="auto")
        if self._net.deletions:
            sources, targets = self._net.deletions.arrays()
            if _supports_a_value(alg, state.values, sources, targets,
                                 weight_fn(sources, targets)):
                return None
        return state.values


class LiveTipOverlay:
    """Absorb single-edge updates against the tip; patch tip reads exactly.

    A value: :meth:`apply_update` and :meth:`rebase_onto` return the
    successor overlay and leave this one as it was.
    """

    def __init__(
        self,
        decomposition: CommonGraphDecomposition,
        tip_version: int,
        *,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.num_vertices = decomposition.num_vertices
        self.weight_fn: WeightFn = (
            weight_fn if weight_fn is not None else UnitWeights()
        )
        #: Absolute version of the TG tip this overlay is anchored on.
        self.tip_version = tip_version
        #: The decomposition whose tip this overlay is anchored on (the
        #: graph a capture repairs on).
        self._anchor = decomposition
        #: The anchored tip's edges (what compaction diffs against).
        self._base_edges = _tip_edges(decomposition)
        #: Live membership of every edge the log touched; the live edge
        #: set is the anchor with these overriding it.
        self._touched: Mapping[Tuple[int, int], bool] = {}
        #: Pending updates, oldest first (the compaction log).
        self._log: Tuple[TipUpdate, ...] = ()
        #: Total updates ever absorbed (monotonic across compactions).
        self.seq = 0
        #: Lifetime update counts by kind (status payload).
        self.update_counts: Mapping[str, int] = {
            kind: 0 for kind in UPDATE_KINDS
        }
        #: Memo of :meth:`_net_batch`.  Two threads may both fill it;
        #: they store equal batches.
        self._net: Optional[DeltaBatch] = None

    def _with(self, **fields: Any) -> "LiveTipOverlay":
        """A successor: this overlay with ``fields`` replaced."""
        successor = object.__new__(LiveTipOverlay)
        successor.__dict__.update(self.__dict__, _net=None, **fields)
        return successor

    # -- shape ----------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending (not yet compacted) updates."""
        return len(self._log)

    def live_edges(self) -> EdgeSet:
        """The live edge set (materialised; immutable)."""
        return _live(self._base_edges, self._net_batch())

    def _net_batch(self) -> DeltaBatch:
        """The log as one net batch against the anchor.

        Insert/delete churn on the same edge cancels; the live set and
        the anchor differ only on touched edges, so those are all it
        reads.
        """
        if self._net is None:
            net = DeltaBatch()
            if self._touched:
                pairs = np.asarray(list(self._touched), dtype=np.int64)
                codes = encode_edges(pairs[:, 0], pairs[:, 1])
                live = np.fromiter(self._touched.values(), dtype=bool,
                                   count=len(self._touched))
                based = self._base_edges.contains_codes(codes)
                net = DeltaBatch(additions=EdgeSet(codes[live & ~based]),
                                 deletions=EdgeSet(codes[based & ~live]))
            self._net = net
        return self._net

    # -- updates --------------------------------------------------------------
    def apply_update(self, kind: str, u: int, v: int) -> "LiveTipOverlay":
        """The overlay with one single-edge update absorbed.

        Validation is strict and deterministic — inserting a present
        edge or deleting an absent one is a client mistake
        (:class:`~repro.errors.ProtocolError`), never a silent no-op,
        so every replica of a fleet rejects exactly the same updates.
        """
        if kind not in UPDATE_KINDS:
            raise ProtocolError(
                f"unknown update kind {kind!r}; expected one of "
                f"{UPDATE_KINDS}"
            )
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise ProtocolError(
                f"edge ({u}, {v}) endpoint out of range "
                f"[0, {self.num_vertices})"
            )
        present = self._touched.get((u, v))
        if present is None:
            present = (u, v) in self._base_edges
        if kind == "insert" and present:
            raise ProtocolError(f"edge ({u}, {v}) already present at tip")
        if kind == "delete" and not present:
            raise ProtocolError(f"edge ({u}, {v}) not present at tip")
        seq = self.seq + 1
        return self._with(
            _touched={**self._touched, (u, v): kind == "insert"},
            _log=(*self._log, TipUpdate(seq=seq, kind=kind, edge=(u, v))),
            seq=seq,
            update_counts={**self.update_counts,
                           kind: self.update_counts[kind] + 1},
        )

    # -- tip reads ------------------------------------------------------------
    def capture(
        self, alg: MonotonicAlgorithm, source: int,
    ) -> Optional[TipCapture]:
        """Capture tip values for a query, or ``None`` when not needed.

        Returns ``None`` when the overlay is clean (the TG tip already
        *is* the answer).  The capture holds the anchor and the net
        batch and resolves lazily (see :class:`TipCapture`).
        """
        if not self._log:
            return None
        return TipCapture(
            seq=self.seq, tip_version=self.tip_version,
            depth=len(self._log), alg=alg, source=source,
            anchor=self._anchor, base=self._base_edges,
            net=self._net_batch(), weight_fn=self.weight_fn,
        )

    # -- compaction protocol ---------------------------------------------------
    def seal(self) -> Tuple[DeltaBatch, int, int]:
        """The pending log as one net batch: ``(batch, depth, seq)``.

        The net batch is the *edge-set* difference between the live
        graph and the anchored tip — insert/delete churn on the same
        edge cancels, so folding never replays intermediate states.
        """
        return self._net_batch(), len(self._log), self.seq

    def rebase_onto(self, decomposition: CommonGraphDecomposition,
                    tip_version: int) -> "LiveTipOverlay":
        """The overlay re-anchored on ``decomposition``'s tip.

        Pending updates are replayed on the new tip: one whose effect
        the tip already has is dropped as satisfied, and so are the
        updates of an edge that ends live as the tip has it (churn that
        cancels out; weights are deterministic per edge, so the tip
        already *is* the live edge).  The rest stay pending —
        acknowledged updates are never silently lost.  So after a fold
        the log keeps only the updates that landed after its seal, and
        after a client batch the updates it did not satisfy.
        """
        tip_edges = (self._base_edges if decomposition is self._anchor
                     else _tip_edges(decomposition))
        anchored: Dict[Tuple[int, int], bool] = {}
        touched: Dict[Tuple[int, int], bool] = {}
        kept: List[TipUpdate] = []
        for update in self._log:
            present = touched.get(update.edge)
            if present is None:
                present = anchored[update.edge] = update.edge in tip_edges
            # Still applies: an insert of an absent edge, or a
            # delete of a present one.
            if (update.kind == "insert") != present:
                touched[update.edge] = not present
                kept.append(update)
        touched = {edge: live for edge, live in touched.items()
                   if live != anchored[edge]}
        return self._with(
            _anchor=decomposition, _base_edges=tip_edges, _touched=touched,
            _log=tuple(update for update in kept if update.edge in touched),
            tip_version=tip_version)

    # -- status ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The status-payload block (cheap; all counters, no arrays)."""
        net = self._net_batch()
        return {
            "tip_version": self.tip_version,
            "overlay_depth": len(self._log),
            "updates_total": self.seq,
            "update_counts": dict(self.update_counts),
            "live_edges": (len(self._base_edges) + len(net.additions)
                           - len(net.deletions)),
        }

    def __repr__(self) -> str:
        return (
            f"LiveTipOverlay(tip={self.tip_version}, "
            f"depth={len(self._log)}, seq={self.seq})"
        )
