"""Machine-readable store/decomposition summaries.

One payload shape serves two consumers: ``python -m repro info --json``
prints it for scripts, and the query service returns it (augmented with
window / epoch / cache counters) as its ``status`` response — so a
health check and an offline audit read the same fields.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.common import CommonGraphDecomposition
from repro.evolving.snapshots import EvolvingGraph
from repro.evolving.store import SnapshotStore

__all__ = ["history_sizes", "store_summary"]

#: A store's base edge count and its batch sizes, oldest first.
Sizes = Tuple[int, Sequence[int]]


def history_sizes(evolving: EvolvingGraph) -> Sizes:
    """The :data:`Sizes` of ``evolving``."""
    return (len(evolving.snapshot_edges(0)),
            tuple(batch.size for batch in evolving.batches))


def store_summary(
    store: SnapshotStore,
    evolving: Optional[EvolvingGraph] = None,
    decomposition: Optional[CommonGraphDecomposition] = None,
    sizes: Optional[Sizes] = None,
) -> Dict[str, Any]:
    """Summarise a store (and optionally its decomposition) as a dict.

    Callers that already hold the evolving graph, the decomposition or
    the history's :func:`history_sizes` pass them in to avoid a re-load;
    given ``decomposition`` and ``sizes`` it reads no file of the store.
    """
    if sizes is None or decomposition is None:
        if evolving is None:
            evolving = store.load()
        if decomposition is None:
            decomposition = CommonGraphDecomposition.from_evolving(evolving)
    base_size, batch_sizes = sizes or history_sizes(evolving)
    common_size = len(decomposition.common)
    return {
        "name": store.name,
        "directory": str(store.directory),
        "format_version": store.format_version,
        "num_vertices": store.num_vertices,
        "num_snapshots": store.num_snapshots,
        "base_edges": base_size,
        "updates_total": sum(batch_sizes),
        "batch_size_min": min(batch_sizes) if batch_sizes else 0,
        "batch_size_max": max(batch_sizes) if batch_sizes else 0,
        "common_edges": common_size,
        "common_share_of_base": round(common_size / max(base_size, 1), 4),
        "direct_hop_additions": decomposition.total_direct_hop_additions(),
        "storage_edges": decomposition.storage_edges(),
        "snapshot_storage_edges": decomposition.snapshot_storage_edges(),
    }
