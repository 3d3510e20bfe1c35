"""Fold the live-tip update log into real Triangular Grid batches.

The overlay keeps per-update ingest sub-millisecond by *not* touching
the TG; the :class:`Compactor` is the other half of the bargain — on a
size threshold it seals the pending log into one
**net** :class:`~repro.evolving.delta.DeltaBatch` (insert/delete churn
on the same edge cancels) and appends it through the service's
ordinary durable ingest lane.  That single append does everything a
client batch does: the store fsyncs it, the decomposition extends by
one column, the epoch bumps, receipts stay strictly consecutive — and
the extension re-anchors the overlay
(:meth:`~repro.livetip.overlay.LiveTipOverlay.rebase_onto`), emptying
the log.  Answers are bit-identical before and after: the folded tip
column materialises exactly the live edge set the overlay was already
answering from.

Concurrency: the caller runs :meth:`Compactor.compact` under its append
lock, so no other in-process append moves the tip between a fold's seal
and its append, and two folds never overlap.  The compactor keeps no
overlay: it reads the one published now, and a net-zero log is cleared
through the publisher's ``collapse``.  Updates keep landing while a
fold is in flight — an update sealed out of the net batch simply stays
pending and rides the next fold.  The fold counters are one value,
replaced whole at the end of a fold, so :meth:`Compactor.snapshot`
never waits for a fold in flight.

Determinism: compaction must fire at the *same point in the update
stream* on every replica of a fleet (receipts are compared per
update), so the policy is count-based only — a clock-driven fold would
land at a different update on each replica.  This module is in the
lint determinism scope — no wall clock is read here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.errors import ServiceError
from repro.evolving.delta import DeltaBatch
from repro.livetip.overlay import LiveTipOverlay

__all__ = ["Compactor"]


class Compactor:
    """Background folding of the published overlay's log through an
    ingest lane.

    ``overlay`` returns the overlay published now.  ``append`` is the
    durable lane — the service passes its store append, so a fold and a
    client batch are literally the same code path from the store down.
    ``collapse()`` clears a sealed log whose updates cancel out.  What
    either returns (the publisher's new value) is the receipt's
    ``published``.  The caller orders ``compact`` with its other
    appends; an append it rejects raises, with the log left pending.
    ``max_updates`` is the deterministic trigger: compaction fires as
    the log reaches this depth.
    """

    def __init__(
        self,
        overlay: Callable[[], LiveTipOverlay],
        append: Callable[[DeltaBatch], Any],
        collapse: Callable[[], Any],
        *,
        max_updates: int = 64,
    ) -> None:
        if max_updates < 1:
            raise ServiceError("max_updates must be >= 1")
        self._overlay = overlay
        self._append = append
        self._collapse = collapse
        self.max_updates = max_updates
        #: Lifetime (compactions, updates folded, last compaction
        #: version), replaced whole by each fold.
        self._totals: Tuple[int, int, Optional[int]] = (0, 0, None)

    # -- policy ---------------------------------------------------------------
    def due(self) -> bool:
        """Whether the pending log has hit the fold threshold."""
        return self._overlay().depth >= self.max_updates

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
        batch, depth, _ = self._overlay().seal()
        if depth == 0:
            return {
                "compacted": False,
                "updates_folded": 0,
                "tip_version": self._overlay().tip_version,
                "published": None,
            }
        with obs.phase_span("livetip", "compact", updates=depth,
                            net=batch.size):
            if batch.size == 0:
                published = self._collapse()
            else:
                published = self._append(batch)
        obs.counter_inc("repro_livetip_compactions_total")
        tip_version = self._overlay().tip_version
        compactions, folded, _ = self._totals
        self._totals = (compactions + 1, folded + depth, tip_version)
        return {
            "compacted": True,
            "updates_folded": depth,
            "tip_version": tip_version,
            "published": published,
        }

    # -- status ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        compactions, folded, version = self._totals
        return {
            "compactions": compactions,
            "updates_folded": folded,
            "last_compaction_version": version,
            "max_updates": self.max_updates,
        }

    def __repr__(self) -> str:
        compactions, folded, _ = self._totals
        return (f"Compactor(compactions={compactions}, folded={folded}, "
                f"max_updates={self.max_updates})")
