"""The memoizing query planner: work-sharing with cross-query reuse.

The offline :class:`~repro.core.engine.WorkSharingEvaluator` shares
interior-ICG states *within* one query.  The planner shares answered
*snapshots* across queries.  For one (algorithm, source) a snapshot's
converged values depend on that snapshot alone — the monotonic fixpoint
on ``ICG(i, i)`` is unique, whichever walk reached it — so the planner
keeps a node cache indexing every snapshot it has answered, keyed by
``(algorithm, source, epoch, snapshot)`` in window coordinates, whose
value is ``(CachedRange, offset)``: a reference into the answer that
holds it.  A range query

* whose snapshots are all held is assembled with no walk;
* with some missing runs one walk over the smallest sub-range covering
  every missing one, ``[first missing, last missing]``; the snapshots
  outside it come from the cache;
* with none held runs the walk over the whole range.

Each evaluation builds its answer's
:class:`~repro.service.cache.CachedRange` once — the entry the service
state puts into its result cache — and indexes every snapshot of it, so
a snapshot is held once, by reference, and no interior walk node is
cached.  Each distinct entry a query reads is expanded once into fresh
rows, so a caller that writes to its answer cannot reach the cache.  A
referenced entry outlives its result-cache eviction; the node cache's
``max_entries`` bounds the snapshot references.

A range is walked on the window decomposition itself (the sub-grid
rooted at the range's node), so the schedule, its sweeps and the two
graphs every query needs come from the decomposition's plan, built on
the first walk of each range in an epoch.  Values assembled from the
cache are bit-identical to a cold walk's (the service's end-to-end test
asserts exactly this against the naive oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.graph.weights import WeightFn
# ``static_compute`` is not called here (the walk calls it): the perf
# harness's self-test, frozen under benchmarks/perf, reads
# ``planner.static_compute`` to check that importers of a traced kernel
# are patched too.
from repro.kickstarter.engine import static_compute  # noqa: F401
from repro.service.cache import CachedRange, LRUCache

__all__ = ["MemoizingPlanner", "PlannedAnswer"]

#: A held snapshot: the entry that stores it and its offset there.
SnapshotRef = Tuple[CachedRange, int]


@dataclass
class PlannedAnswer:
    """One planned evaluation: per-snapshot values, the result-cache entry
    holding them, and reuse accounting."""

    values: List[np.ndarray]
    entry: CachedRange
    additions_processed: int = 0
    stabilisations: int = 0
    #: Snapshots served from the node cache / computed by the walk.
    node_hits: int = 0
    node_misses: int = 0


def _held_rows(held: List[Optional[SnapshotRef]],
               skip: range) -> List[Optional[np.ndarray]]:
    """Fresh rows of the held snapshots outside ``skip`` (``None``
    elsewhere), expanding each distinct entry once."""
    expanded: Dict[int, List[np.ndarray]] = {}
    rows: List[Optional[np.ndarray]] = []
    for offset, ref in enumerate(held):
        if ref is None or offset in skip:
            rows.append(None)
            continue
        entry, at = ref
        if id(entry) not in expanded:
            expanded[id(entry)] = entry.rows()
        rows.append(expanded[id(entry)][at])
    return rows


class MemoizingPlanner:
    """Plans and executes range queries against a node cache of answered
    snapshots.

    The planner owns the node cache (``node_cache_entries`` snapshot
    references); the caller (the service state) owns epochs and the
    result cache, into which it puts each answer's ``entry``.
    """

    def __init__(
        self,
        node_cache_entries: int = 1024,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.node_cache = LRUCache(node_cache_entries)
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
            keys = [(algorithm.name, source, epoch, snapshot)
                    for snapshot in range(first, last + 1)]
            held = [self.node_cache.get(key) for key in keys]
            missing = [offset for offset, ref in enumerate(held) if ref is None]
            walked = range(missing[0], missing[-1] + 1) if missing else range(0)
            rows = _held_rows(held, walked)
            stabilisations = additions = 0
            if missing:
                walk = WorkSharingEvaluator(
                    decomposition, algorithm, source, weight_fn=self.weight_fn,
                    first=first + walked.start, last=first + walked.stop - 1,
                ).run(layer="planner")
                rows[walked.start:walked.stop] = [
                    values.copy() for values in walk.snapshot_values]
                stabilisations = walk.stabilisations
                additions = walk.additions_processed
            entry = CachedRange(rows)
            for offset, key in enumerate(keys):
                self.node_cache.put(key, (entry, offset))
            hits = len(keys) - len(walked)
            plan_span.annotate(node_hits=hits, node_misses=len(walked))
        return PlannedAnswer(
            values=rows,
            entry=entry,
            additions_processed=additions,
            stabilisations=stabilisations,
            node_hits=hits,
            node_misses=len(walked),
        )
