"""Live-tip overlay: sub-batch per-update ingest over the tip snapshot.

The Triangular Grid makes *batch*-granular evolving analytics cheap,
but a single-edge change still costs a whole TG column (a durable
store append plus an incremental extension).  :class:`LiveTipOverlay`
absorbs single-edge updates without touching the grid, and a read at
the tip patches the grid's answer by them:

* the live edge set is the anchored tip plus the update log: an update
  decides membership against the anchor and the edges the log touched,
  and allocates O(1) — the live set is materialised only by
  :meth:`~LiveTipOverlay.seal`, :meth:`~LiveTipOverlay.rebase_onto`
  and a from-scratch capture;
* it owns a :class:`~repro.graph.mutable.MutableGraph` replica of the
  live graph (row-local mutation): an update validates, mutates the
  replica and logs — it repairs no query state;
* a patched read starts from the TG's own converged tip column (the
  paper's idea 1 applied to the tip): every net deletion of the log
  must pass RisGraph's safe test (it supports no value), then only the
  net additions are pushed on the replica.  An unsafe deletion falls
  back to one from-scratch compute on the materialised live set.

The overlay is an *overlay*: the Triangular Grid below it never sees
individual updates.  The update log is periodically folded into one
real batch by the :class:`~repro.livetip.compactor.Compactor`, after
which :meth:`rebase_onto` re-anchors the overlay on the new tip —
pending updates whose effect the new tip already contains are dropped
as satisfied, the rest are replayed.  Values are **bit-identical** to
batch recomputation throughout: the repair is exact for the monotonic
algorithm classes the engine serves, and the equivalence is
hypothesis-tested across interleavings in ``tests/livetip/``.

Thread model: one reentrant lock guards every mutable field.  Updates
and the repair of a TG tip column (bounded by the log's ≤ depth net
additions) run under it; the from-scratch fallback runs lock-free on
an immutable capture.  Callers that must compose the overlay with
other state (the service's decomposition capture) hold their own lock
*first* and this one second; the overlay never calls back out while
holding its lock, so the acquisition order is acyclic.  Determinism:
the module is in the lint determinism scope — no wall clock here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import ProtocolError
from repro.evolving.delta import DeltaBatch
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, encode_edges
from repro.graph.mutable import MutableGraph
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

    Captured under the overlay lock: it holds the immutable anchor edge
    set and the log's small net batch.  Resolving repairs the TG's
    converged tip column by the net batch under the overlay lock when
    every net deletion is safe; otherwise it computes from scratch on
    the materialised live set *outside* any lock.
    """

    def __init__(
        self,
        *,
        seq: int,
        tip_version: int,
        depth: int,
        alg: MonotonicAlgorithm,
        source: int,
        base: EdgeSet,
        net: DeltaBatch,
        overlay: "LiveTipOverlay",
    ) -> None:
        self.seq = seq
        self.tip_version = tip_version
        self.depth = depth
        self._alg = alg
        self._source = source
        self._base = base
        self._net = net
        self._overlay = overlay
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
        overlay, net = self._overlay, self._net
        repaired = None
        if tip_values is not None:
            repaired = overlay._repair_tip(
                self._alg, self._source, tip_values, net,
                self.seq, self.tip_version,
            )
        obs.annotate(livetip_repair="fallback" if repaired is None else "tg",
                     livetip_additions=len(net.additions),
                     livetip_deletions=len(net.deletions))
        if repaired is not None:
            return repaired
        graph = CSRGraph.from_edge_set(
            _live(self._base, net), overlay.num_vertices,
            weight_fn=overlay.weight_fn,
        )
        return static_compute(graph, self._alg, self._source).values


class LiveTipOverlay:
    """Absorb single-edge updates against the tip; patch tip reads exactly."""

    def __init__(
        self,
        tip_edges: EdgeSet,
        num_vertices: int,
        tip_version: int,
        *,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.num_vertices = num_vertices
        self.weight_fn: WeightFn = (
            weight_fn if weight_fn is not None else UnitWeights()
        )
        # Reentrant: status/snapshot helpers lock internally and must
        # stay callable from code that already holds the lock.
        self._lock = threading.RLock()
        #: Absolute version of the TG tip this overlay is anchored on.
        self.tip_version = tip_version  # guarded-by: _lock
        #: The anchored tip's edges (what compaction diffs against).
        self._base_edges = tip_edges  # guarded-by: _lock
        #: Live membership of every edge the log touched; the live edge
        #: set is the anchor with these overriding it.
        self._touched: Dict[Tuple[int, int], bool] = {}  # guarded-by: _lock
        #: The log's net batch against the anchor (memo, reset by every
        #: change to the anchor or the touched edges).
        self._net: Optional[DeltaBatch] = None  # guarded-by: _lock
        #: Row-local mutable replica of the live graph, which the
        #: net-addition push runs on (lazy: built on the first update,
        #: dropped whenever the live edges change under a rebase).
        self._graph: Optional[MutableGraph] = None  # guarded-by: _lock
        #: Pending updates, oldest first (the compaction log).
        self._log: List[TipUpdate] = []  # guarded-by: _lock
        #: Total updates ever absorbed (monotonic across compactions).
        self.seq = 0  # guarded-by: _lock
        #: Lifetime update counts by kind (status payload).
        self.update_counts: Dict[str, int] = {  # guarded-by: _lock
            kind: 0 for kind in UPDATE_KINDS
        }

    # -- shape ----------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Pending (not yet compacted) updates."""
        with self._lock:
            return len(self._log)

    def live_edges(self) -> EdgeSet:
        """The current live edge set (materialised; immutable)."""
        with self._lock:
            return _live(self._base_edges, self._net_locked())

    def _net_locked(self) -> DeltaBatch:  # holds-lock: _lock
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
    def _graph_locked(self) -> MutableGraph:  # holds-lock: _lock
        if self._graph is None:
            net = self._net_locked()
            graph = MutableGraph.from_edge_set(
                self._base_edges, self.num_vertices, weight_fn=self.weight_fn,
            )
            graph.add_batch(net.additions)
            graph.delete_batch(net.deletions)
            self._graph = graph
        return self._graph

    def apply_update(self, kind: str, u: int, v: int) -> Dict[str, Any]:
        """Absorb one single-edge update; returns the update receipt.

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
        edge = EdgeSet.from_pairs([(u, v)])
        with self._lock:
            present = self._touched.get((u, v))
            if present is None:
                present = (u, v) in self._base_edges
            if kind == "insert" and present:
                raise ProtocolError(f"edge ({u}, {v}) already present at tip")
            if kind == "delete" and not present:
                raise ProtocolError(f"edge ({u}, {v}) not present at tip")
            graph = self._graph_locked()
            if kind == "insert":
                graph.add_batch(edge)
            else:
                graph.delete_batch(edge)
            self._touched[(u, v)] = kind == "insert"
            self._net = None
            self.seq += 1
            self._log.append(TipUpdate(seq=self.seq, kind=kind, edge=(u, v)))
            self.update_counts[kind] += 1
            depth = len(self._log)
            receipt = {
                "seq": self.seq,
                "tip_version": self.tip_version,
                "overlay_depth": depth,
            }
        obs.counter_inc("repro_livetip_updates_total", kind=kind)
        obs.gauge_set("repro_livetip_depth", float(depth))
        return receipt

    # -- tip reads ------------------------------------------------------------
    def capture(
        self,
        alg: MonotonicAlgorithm,
        source: int,
        *,
        tip_version: Optional[int] = None,
    ) -> Optional[TipCapture]:
        """Capture tip values for a query, or ``None`` when not needed.

        Returns ``None`` when the overlay is clean (the TG tip already
        *is* the answer) or when ``tip_version`` disagrees with the
        overlay's anchor (the caller captured a decomposition the
        overlay no longer sits on; the TG answer is the consistent
        one).  The capture holds the anchor and the net batch and
        resolves lazily (see :class:`TipCapture`).
        """
        with self._lock:
            if not self._log:
                return None
            if tip_version is not None and tip_version != self.tip_version:
                return None
            return TipCapture(
                seq=self.seq, tip_version=self.tip_version,
                depth=len(self._log), alg=alg, source=source,
                base=self._base_edges, net=self._net_locked(), overlay=self,
            )

    def _repair_tip(
        self,
        alg: MonotonicAlgorithm,
        source: int,
        tip_values: np.ndarray,
        net: DeltaBatch,
        seq: int,
        tip_version: int,
    ) -> Optional[np.ndarray]:
        """The anchored tip's converged ``tip_values`` repaired to the
        live tip, or ``None`` when that is not exact.

        The paper's idea 1 on the tip: with every net deletion safe
        (:func:`_supports_a_value`), the anchor's fixpoint is the
        fixpoint without them, and pushing the net additions on the
        live graph converges exactly.  ``None`` when a deletion is
        unsafe or the overlay moved since the capture (the live
        replica no longer matches ``net``).
        """
        if net.deletions:
            sources, targets = net.deletions.arrays()
            if _supports_a_value(alg, tip_values, sources, targets,
                                 self.weight_fn(sources, targets)):
                return None
        state = VertexState(values=tip_values.copy(), source=source)
        sources, targets = net.additions.arrays()
        weights = self.weight_fn(sources, targets)
        with self._lock:
            if (seq, tip_version) != (self.seq, self.tip_version):
                return None
            if sources.size:
                incremental_additions(
                    self._graph_locked(), alg, state, sources, targets,
                    weights, mode="auto",
                )
        return state.values

    # -- compaction protocol ---------------------------------------------------
    def seal(self) -> Tuple[DeltaBatch, int, int]:
        """The pending log as one net batch: ``(batch, depth, seq)``.

        The net batch is the *edge-set* difference between the live
        graph and the anchored tip — insert/delete churn on the same
        edge cancels, so folding never replays intermediate states.
        """
        with self._lock:
            return self._net_locked(), len(self._log), self.seq

    def collapse(self, seq: int) -> bool:
        """Clear a net-zero log sealed at ``seq`` (churn cancelled out).

        Returns ``False`` when an update landed after the seal — the
        caller re-seals and tries again.
        """
        with self._lock:
            if seq != self.seq:
                return False
            self._log.clear()
            self._touched.clear()
            self._net = None
        obs.gauge_set("repro_livetip_depth", 0.0)
        return True

    def rebase_onto(self, tip_edges: EdgeSet, tip_version: int) -> int:
        """Re-anchor on a new TG tip; returns pending updates kept.

        After our own compaction the new tip contains every pending
        effect and the log empties.  After a *foreign* batch (another
        store handle appended) pending updates are replayed: one whose
        effect the new tip already has is dropped as satisfied, the
        rest stay pending — acknowledged updates are never silently
        lost.  The graph replica survives only when the live edge set
        is unchanged by the rebase (the compaction case); otherwise it
        is dropped and rebuilt by the next update.
        """
        with self._lock:
            old_live = _live(self._base_edges, self._net_locked())
            touched: Dict[Tuple[int, int], bool] = {}
            kept: List[TipUpdate] = []
            for update in self._log:
                present = touched.get(update.edge)
                if present is None:
                    present = update.edge in tip_edges
                # Still applies: an insert of an absent edge, or a
                # delete of a present one.
                if (update.kind == "insert") != present:
                    touched[update.edge] = not present
                    kept.append(update)
            self._base_edges = tip_edges
            self._touched = touched
            self._net = None
            net = self._net_locked()
            if not net.size:
                # The kept updates compose to a no-op (delete/reinsert
                # churn that the net fold cancelled): weights are
                # deterministic per edge, so the tip already *is* the
                # live graph — nothing stays pending.
                kept = []
                touched.clear()
            if _live(tip_edges, net) != old_live:
                self._graph = None
            self._log = kept
            self.tip_version = tip_version
            depth = len(kept)
        obs.gauge_set("repro_livetip_depth", float(depth))
        return depth

    # -- status ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The status-payload block (cheap; all counters, no arrays)."""
        with self._lock:
            net = self._net_locked()
            return {
                "tip_version": self.tip_version,
                "overlay_depth": len(self._log),
                "updates_total": self.seq,
                "update_counts": dict(self.update_counts),
                "live_edges": (len(self._base_edges) + len(net.additions)
                               - len(net.deletions)),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveTipOverlay(tip={self.tip_version}, "
                f"depth={len(self._log)}, seq={self.seq})"
            )
