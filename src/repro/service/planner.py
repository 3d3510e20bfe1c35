"""The memoizing query planner: work-sharing with cross-query reuse.

The offline :class:`~repro.core.engine.WorkSharingEvaluator` shares
interior-ICG states *within* one query.  The planner reuses answered
*snapshots* across queries.  For one (algorithm, source) a snapshot's
converged values depend on that snapshot alone — the monotonic fixpoint
on ``ICG(i, i)`` is unique, whichever walk reached it — so a snapshot an
earlier answer holds is never computed again.  The caller (the service
state) finds those snapshots among its result-cache entries and passes
them in as ``held``: per snapshot of the range, ``(CachedRange, offset)``
— a reference into the answer that holds it — or ``None``.  A range
query

* whose snapshots are all held is assembled with no walk;
* with some missing runs one walk over the smallest sub-range covering
  every missing one, ``[first missing, last missing]``; the snapshots
  outside it come from the held entries;
* with none held runs the walk over the whole range.

Each evaluation builds its answer's
:class:`~repro.service.cache.CachedRange` once — the entry the service
state puts into its result cache.  The planner keeps nothing between
queries.  Each distinct entry a query reads is expanded once into fresh
rows, so a caller that writes to its answer cannot reach the cache.

A range is walked on the window decomposition itself (the sub-grid
rooted at the range's node), so the schedule, its sweeps and the two
graphs every query needs come from the decomposition's plan, built on
the first walk of each range in an epoch.  A caller that holds the
query's values on the decomposition's common graph (the service's kept
root) passes them as ``root`` and the walk skips its static
convergence; every walk hands back the root it started from.  Values
assembled from held snapshots are bit-identical to a cold walk's (the
service's end-to-end test asserts exactly this against the naive
oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.service.cache import CachedRange

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
    #: Snapshots read from held entries / computed by the walk.
    node_hits: int = 0
    node_misses: int = 0
    #: The query's values on the common graph the walk started from
    #: (``None``: no walk ran).
    root: Optional[np.ndarray] = None


def _held_rows(held: Sequence[Optional[SnapshotRef]],
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
    """Plans and executes range queries, reusing the snapshots the
    caller holds.

    The planner owns no cache: the caller (the service state) owns
    epochs and the result cache, passes in the snapshots its entries
    hold and puts each answer's ``entry`` back.
    """

    def __init__(self, weight_fn: Optional[WeightFn] = None) -> None:
        self.weight_fn = weight_fn

    def evaluate(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        first: int,
        last: int,
        epoch: int,
        held: Optional[Sequence[Optional[SnapshotRef]]] = None,
        root: Optional[np.ndarray] = None,
    ) -> PlannedAnswer:
        """Answer ``algorithm`` from ``source`` on snapshots ``first..last``.

        ``first``/``last`` are indices into ``decomposition`` (the
        service window), ``epoch`` labels the trace.  ``held`` has one
        item per snapshot of the range (``None``: not held); without it
        the whole range is walked.  ``root``, the query's values on
        ``decomposition``'s common graph when the caller holds them,
        spares a walk its static convergence.
        """
        with obs.phase_span("planner", "evaluate",
                            label=f"{algorithm.name}:{source}",
                            first=first, last=last, epoch=epoch) as plan_span:
            if held is None:
                held = [None] * (last - first + 1)
            missing = [offset for offset, ref in enumerate(held) if ref is None]
            walked = range(missing[0], missing[-1] + 1) if missing else range(0)
            rows = _held_rows(held, walked)
            stabilisations = additions = 0
            converged = None
            if missing:
                walk = WorkSharingEvaluator(
                    decomposition, algorithm, source, weight_fn=self.weight_fn,
                    first=first + walked.start, last=first + walked.stop - 1,
                ).run(root=root, layer="planner")
                rows[walked.start:walked.stop] = [
                    values.copy() for values in walk.snapshot_values]
                stabilisations = walk.stabilisations
                additions = walk.additions_processed
                converged = walk.root
            entry = CachedRange(rows)
            hits = len(held) - len(walked)
            plan_span.annotate(node_hits=hits, node_misses=len(walked))
        return PlannedAnswer(
            values=rows,
            entry=entry,
            additions_processed=additions,
            stabilisations=stabilisations,
            node_hits=hits,
            node_misses=len(walked),
            root=converged,
        )
