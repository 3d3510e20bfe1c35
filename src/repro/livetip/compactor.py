"""Fold the live-tip update log into real Triangular Grid batches.

The overlay keeps per-update ingest sub-millisecond by *not* touching
the TG; the :class:`Compactor` is the other half of the bargain — on a
size threshold it seals the pending log into one
**net** :class:`~repro.evolving.delta.DeltaBatch` (insert/delete churn
on the same edge cancels) and appends it through the service's
ordinary durable ingest lane.  That single append does everything a
client batch does: the store fsyncs it, the decomposition extends by
one column, the epoch bumps, receipts stay strictly consecutive — and
the store notification re-anchors the overlay
(:meth:`~repro.livetip.overlay.LiveTipOverlay.rebase_onto`), emptying
the log.  Answers are bit-identical before and after: the folded tip
column materialises exactly the live edge set the overlay was already
answering from.

Concurrency: one compactor lock serialises folds (two concurrent
folds would race the store's strict batch validation).  Updates keep
landing while a fold is in flight — an update sealed out of the net
batch simply stays pending and rides the next fold.  A foreign append
sneaking between seal and append makes the store reject our stale net
batch (:class:`~repro.errors.DeltaError`); the rejection triggers a
re-seal against the rebased overlay, never a corrupt fold.

Determinism: compaction must fire at the *same point in the update
stream* on every replica of a fleet (receipts are compared per
update), so the policy is count-based only — a clock-driven fold would
land at a different update on each replica.  This module is in the
lint determinism scope — no wall clock is read here.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro import obs
from repro.errors import DeltaError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.livetip.overlay import LiveTipOverlay

__all__ = ["Compactor"]


class Compactor:
    """Background folding of one overlay's log through an ingest lane.

    ``append`` is the durable lane — the service passes its store's
    ``append`` bound method, so a fold and a client batch are
    literally the same code path from the store down.  ``max_updates``
    is the deterministic trigger: compaction fires as the log reaches
    this depth.
    """

    def __init__(
        self,
        overlay: LiveTipOverlay,
        append: Callable[[DeltaBatch], Any],
        *,
        max_updates: int = 64,
    ) -> None:
        if max_updates < 1:
            raise ServiceError("max_updates must be >= 1")
        self._overlay = overlay
        self._append = append
        self.max_updates = max_updates
        # Serialises folds; never held while a caller's lock is taken.
        self._lock = threading.Lock()
        self.compactions = 0  # guarded-by: _lock
        self.updates_folded = 0  # guarded-by: _lock
        self.last_compaction_version: Optional[int] = None  # guarded-by: _lock

    # -- policy ---------------------------------------------------------------
    def due(self) -> bool:
        """Whether the pending log has hit the fold threshold."""
        return self._overlay.depth >= self.max_updates

    def maybe_compact(self) -> Optional[Dict[str, Any]]:
        """Fold if due; the per-update hook on the service's hot path."""
        if not self.due():
            return None
        return self.compact()

    # -- folding --------------------------------------------------------------
    def compact(self) -> Dict[str, Any]:
        """Fold the pending log now; returns the compaction receipt.

        A clean overlay is a cheap no-op (``compacted: False``).  A
        net-zero log (pure churn) collapses without an append — no new
        version, no epoch bump, nothing to replay.
        """
        with self._lock:
            for attempt in range(3):
                batch, depth, seal_seq = self._overlay.seal()
                if depth == 0:
                    return {
                        "compacted": False,
                        "updates_folded": 0,
                        "tip_version": self._overlay.tip_version,
                    }
                with obs.phase_span("livetip", "compact", updates=depth,
                                    net=batch.size):
                    if batch.size == 0:
                        if not self._overlay.collapse(seal_seq):
                            continue  # an update landed mid-seal; re-seal
                    else:
                        try:
                            self._append(batch)
                        except DeltaError:
                            # A foreign append moved the tip between the
                            # seal and our append; the store notification
                            # already rebased the overlay — re-seal.
                            if attempt == 2:
                                raise
                            continue
                obs.counter_inc("repro_livetip_compactions_total")
                self.compactions += 1
                self.updates_folded += depth
                self.last_compaction_version = self._overlay.tip_version
                return {
                    "compacted": True,
                    "updates_folded": depth,
                    "tip_version": self._overlay.tip_version,
                }
            raise ServiceError(
                "live-tip compaction could not seal a stable update log "
                "after 3 attempts (appends kept racing the seal)"
            )

    # -- status ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "compactions": self.compactions,
                "updates_folded": self.updates_folded,
                "last_compaction_version": self.last_compaction_version,
                "max_updates": self.max_updates,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Compactor(compactions={self.compactions}, "
                f"folded={self.updates_folded}, "
                f"max_updates={self.max_updates})"
            )
