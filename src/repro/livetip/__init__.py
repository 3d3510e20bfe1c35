"""repro.livetip — sub-batch per-update ingest over the Triangular Grid.

The second ingest granularity: single-edge inserts/deletes land in a
:class:`LiveTipOverlay` (sub-millisecond; a read at the tip repairs
the TG's converged tip column by the logged edges), and a
:class:`Compactor` periodically folds the accumulated log into one real
batch through the ordinary durable lane — so the tip is always both
*fresh* (overlay) and *durable within one compaction window* (TG).  See
``docs/livetip.md``.
"""

from repro.livetip.compactor import Compactor
from repro.livetip.overlay import (
    LiveTipOverlay,
    TipCapture,
    TipUpdate,
    UPDATE_KINDS,
)

__all__ = [
    "Compactor",
    "LiveTipOverlay",
    "TipCapture",
    "TipUpdate",
    "UPDATE_KINDS",
]
