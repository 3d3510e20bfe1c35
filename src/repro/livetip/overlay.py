"""Live-tip overlay: sub-batch per-update ingest over the tip snapshot.

The Triangular Grid makes *batch*-granular evolving analytics cheap,
but a single-edge change still costs a whole TG column (a durable
store append plus an incremental extension).  RisGraph-style systems
show that per-update analysis can be orders of magnitude cheaper when
the update is absorbed by *localized incremental repair* of already
converged query state.  :class:`LiveTipOverlay` is that hot path:

* it owns a :class:`~repro.graph.mutable.MutableGraph` replica of the
  tip snapshot (row-local mutation, out- and in-direction — exactly
  what KickStarter-style repair needs);
* every single-edge **insert** is pushed through the engine's
  monotonic repair (:func:`~repro.kickstarter.engine.incremental_additions`
  — seed the new edge, push until stable);
* every single-edge **delete** runs the KickStarter trimming pass
  (:func:`~repro.kickstarter.deletion.trim_and_repair` — tag the
  approximation-tree subtree below the edge, trim it, re-push from
  untagged in-neighbours);
* repaired :class:`~repro.kickstarter.engine.VertexState`\\ s are kept
  per ``(algorithm, source)`` so repeated updates repair incrementally
  instead of recomputing, and tip queries read the repaired values
  directly — sub-millisecond, no TG column rebuild.

The overlay is an *overlay*: the Triangular Grid below it never sees
individual updates.  The update log is periodically folded into one
real batch by the :class:`~repro.livetip.compactor.Compactor`, after
which :meth:`rebase_onto` re-anchors the overlay on the new tip —
pending updates whose effect the new tip already contains are dropped
as satisfied, the rest are replayed.  Values are **bit-identical** to
batch recomputation throughout: repair is exact for the monotonic
algorithm classes the engine serves, and the equivalence is
hypothesis-tested across interleavings in ``tests/livetip/``.

Thread model: one reentrant lock guards every mutable field.  Callers
that must compose the overlay with other state (the service's
decomposition capture) hold their own lock *first* and this one
second; the overlay never calls back out while holding its lock, so
the acquisition order is acyclic.  Determinism: the module is in the
lint determinism scope — no wall clock here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import ProtocolError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.mutable import MutableGraph
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import (
    EngineCounters,
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


class TipCapture:
    """A consistent snapshot of tip values for one ``(algorithm, source)``.

    Captured under the overlay lock (values copied, or the immutable
    live edge set referenced); resolved lock-free afterwards, so a
    query never runs a from-scratch compute while holding any lock.  A
    resolved from-scratch state is adopted back into the overlay's
    tracked set when no update landed in between, so the *next* update
    repairs it incrementally instead of recomputing.
    """

    def __init__(
        self,
        *,
        seq: int,
        tip_version: int,
        depth: int,
        alg: MonotonicAlgorithm,
        source: int,
        values: Optional[np.ndarray] = None,
        edges: Optional[EdgeSet] = None,
        overlay: Optional["LiveTipOverlay"] = None,
    ) -> None:
        self.seq = seq
        self.tip_version = tip_version
        self.depth = depth
        self._alg = alg
        self._source = source
        self._values = values
        self._edges = edges
        self._overlay = overlay

    def resolve(self) -> np.ndarray:
        """The tip values (a fresh copy; computes at most once)."""
        if self._values is None:
            if self._edges is None or self._overlay is None:
                raise ServiceError("tip capture has neither values nor edges")
            overlay = self._overlay
            graph = CSRGraph.from_edge_set(
                self._edges, overlay.num_vertices,
                weight_fn=overlay.weight_fn,
            )
            state = static_compute(
                graph, self._alg, self._source, track_parents=True,
            )
            self._values = state.values
            overlay._adopt(self._alg, self._source, state, self.seq)
        return self._values.copy()


class LiveTipOverlay:
    """Absorb single-edge updates against the tip with exact repair."""

    def __init__(
        self,
        tip_edges: EdgeSet,
        num_vertices: int,
        tip_version: int,
        *,
        weight_fn: Optional[WeightFn] = None,
        max_tracked: int = 8,
    ) -> None:
        if max_tracked < 1:
            raise ServiceError("max_tracked must be >= 1")
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
        #: The live edge set: tip edges plus every pending update.
        self._edges = tip_edges  # guarded-by: _lock
        #: Row-local mutable replica of the live graph (lazy: built on
        #: the first update, dropped whenever the live edges change
        #: under a rebase).
        self._graph: Optional[MutableGraph] = None  # guarded-by: _lock
        #: Pending updates, oldest first (the compaction log).
        self._log: List[TipUpdate] = []  # guarded-by: _lock
        #: Total updates ever absorbed (monotonic across compactions).
        self.seq = 0  # guarded-by: _lock
        #: Repaired per-(algorithm, source) states, LRU-bounded.
        self._states: "OrderedDict[Tuple[str, int], Tuple[MonotonicAlgorithm, VertexState]]" = (
            OrderedDict()
        )  # guarded-by: _lock
        self._max_tracked = max_tracked
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

    @property
    def tracked_states(self) -> int:
        with self._lock:
            return len(self._states)

    def live_edges(self) -> EdgeSet:
        """The current live edge set (immutable; safe to share)."""
        with self._lock:
            return self._edges

    # -- updates --------------------------------------------------------------
    def _graph_locked(self) -> MutableGraph:  # holds-lock: _lock
        if self._graph is None:
            self._graph = MutableGraph.from_edge_set(
                self._edges, self.num_vertices, weight_fn=self.weight_fn,
            )
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
            present = (u, v) in self._edges
            if kind == "insert" and present:
                raise ProtocolError(f"edge ({u}, {v}) already present at tip")
            if kind == "delete" and not present:
                raise ProtocolError(f"edge ({u}, {v}) not present at tip")
            graph = self._graph_locked()
            if kind == "insert":
                graph.add_batch(edge)
                self._edges = self._edges.union(edge)
            else:
                graph.delete_batch(edge)
                self._edges = self._edges.difference(edge)
            self._repair_locked(kind, edge)
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

    def _repair_locked(self, kind: str, edge: EdgeSet) -> None:
        # holds-lock: _lock
        """Repair every tracked state for one applied edge.

        ``self._graph`` already reflects the update (both repair
        algorithms require the *post*-update graph).
        """
        if not self._states:
            return
        graph = self._graph_locked()
        sources, targets = edge.arrays()
        weights = self.weight_fn(sources, targets)
        for (alg_name, source), (alg, state) in self._states.items():
            counters = EngineCounters()
            with obs.phase_span("livetip", "repair",
                                label=f"{alg_name}:{source}", kind=kind):
                if kind == "insert":
                    incremental_additions(
                        graph, alg, state, sources, targets, weights,
                        counters=counters, mode="auto",
                    )
                else:
                    trim_and_repair(
                        graph, alg, state, edge,
                        counters=counters, mode="auto", tagging="hybrid",
                        deleted_weights=weights,
                    )
            frontier = counters.vertices_updated + counters.vertices_trimmed
            obs.observe("repro_livetip_repair_frontier", float(frontier))

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
        one).  Tracked states resolve to a values copy immediately;
        untracked ones capture the immutable live edge set and compute
        lazily outside any lock.
        """
        with self._lock:
            if not self._log:
                return None
            if tip_version is not None and tip_version != self.tip_version:
                return None
            key = (alg.name, source)
            entry = self._states.get(key)
            if entry is not None:
                self._states.move_to_end(key)
                return TipCapture(
                    seq=self.seq, tip_version=self.tip_version,
                    depth=len(self._log), alg=alg, source=source,
                    values=entry[1].values.copy(),
                )
            return TipCapture(
                seq=self.seq, tip_version=self.tip_version,
                depth=len(self._log), alg=alg, source=source,
                edges=self._edges, overlay=self,
            )

    def _adopt(
        self,
        alg: MonotonicAlgorithm,
        source: int,
        state: VertexState,
        seq: int,
    ) -> None:
        """Adopt a freshly computed state if no update landed since.

        Called by :meth:`TipCapture.resolve` after a lock-free static
        compute; a stale compute (``seq`` moved on) is simply not
        adopted — correctness never depends on adoption.
        """
        with self._lock:
            if seq != self.seq:
                return
            key = (alg.name, source)
            if key in self._states:
                return
            self._states[key] = (alg, state)
            while len(self._states) > self._max_tracked:
                self._states.popitem(last=False)
            tracked = len(self._states)
        obs.gauge_set("repro_livetip_tracked_states", float(tracked))

    # -- compaction protocol ---------------------------------------------------
    def seal(self) -> Tuple[DeltaBatch, int, int]:
        """The pending log as one net batch: ``(batch, depth, seq)``.

        The net batch is the *edge-set* difference between the live
        graph and the anchored tip — insert/delete churn on the same
        edge cancels, so folding never replays intermediate states.
        The two differ only on logged edges, so those are all it reads.
        """
        with self._lock:
            touched = EdgeSet.from_pairs({u.edge for u in self._log})
            live = touched & self._edges
            base = touched & self._base_edges
            batch = DeltaBatch(additions=live - base, deletions=base - live)
            return batch, len(self._log), self.seq

    def collapse(self, seq: int) -> bool:
        """Clear a net-zero log sealed at ``seq`` (churn cancelled out).

        Returns ``False`` when an update landed after the seal — the
        caller re-seals and tries again.
        """
        with self._lock:
            if seq != self.seq:
                return False
            self._base_edges = self._edges
            self._log.clear()
        obs.gauge_set("repro_livetip_depth", 0.0)
        return True

    def rebase_onto(self, tip_edges: EdgeSet, tip_version: int) -> int:
        """Re-anchor on a new TG tip; returns pending updates kept.

        After our own compaction the new tip contains every pending
        effect and the log empties.  After a *foreign* batch (another
        store handle appended) pending updates are replayed: one whose
        effect the new tip already has is dropped as satisfied, the
        rest stay pending — acknowledged updates are never silently
        lost.  Tracked states survive only when the live edge set is
        unchanged by the rebase (the compaction case); otherwise they
        are dropped and lazily recomputed.
        """
        with self._lock:
            edges = tip_edges
            kept: List[TipUpdate] = []
            for update in self._log:
                single = EdgeSet.from_pairs([update.edge])
                present = update.edge in edges
                if update.kind == "insert" and not present:
                    edges = edges.union(single)
                    kept.append(update)
                elif update.kind == "delete" and present:
                    edges = edges.difference(single)
                    kept.append(update)
            if edges == tip_edges:
                # The kept updates compose to a no-op (delete/reinsert
                # churn that the net fold cancelled): weights are
                # deterministic per edge, so the tip already *is* the
                # live graph — nothing stays pending.
                kept = []
            if edges != self._edges:
                self._states.clear()
                self._graph = None
            # Equal or not, hold the new object: with nothing kept it is
            # the anchor itself, one tip-sized array instead of two.
            self._edges = edges
            self._base_edges = tip_edges
            self._log = kept
            self.tip_version = tip_version
            depth = len(kept)
        obs.gauge_set("repro_livetip_depth", float(depth))
        obs.gauge_set("repro_livetip_tracked_states",
                      float(self.tracked_states))
        return depth

    # -- status ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The status-payload block (cheap; all counters, no arrays)."""
        with self._lock:
            return {
                "tip_version": self.tip_version,
                "overlay_depth": len(self._log),
                "updates_total": self.seq,
                "update_counts": dict(self.update_counts),
                "tracked_states": len(self._states),
                "live_edges": len(self._edges),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveTipOverlay(tip={self.tip_version}, "
                f"depth={len(self._log)}, seq={self.seq}, "
                f"tracked={len(self._states)})"
            )
