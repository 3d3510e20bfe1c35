"""Direct-Hop query evaluation (§3.1).

Evaluate the query once on the common graph ``Gc``; then, for every
snapshot independently, overlay that snapshot's surplus batch on ``Gc``
(no mutation) and incrementally propagate the additions.  Deletions
never occur, the expensive trim-and-repair machinery and the transpose
graph are never needed, and every hop starts from the same converged
state — which is what makes the hops embarrassingly parallel.

That is the schedule walk of :mod:`repro.core.engine` on the star
schedule (``direct_hop_tree``), so this evaluator is that one.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.graph.weights import WeightFn

__all__ = ["DirectHopEvaluator"]


class DirectHopEvaluator(WorkSharingEvaluator):
    """Evaluates one query on all snapshots via direct hops from ``Gc``:
    one sweep of ``n`` rows."""

    strategy = "direct-hop"

    def __init__(
        self,
        decomposition: CommonGraphDecomposition,
        algorithm: MonotonicAlgorithm,
        source: int,
        weight_fn: Optional[WeightFn] = None,
        mode: str = "auto",
        first: int = 0,
        last: Optional[int] = None,
    ) -> None:
        super().__init__(decomposition, algorithm, source,
                         weight_fn=weight_fn, mode=mode,
                         first=first, last=last)
