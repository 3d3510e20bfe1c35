"""Monotonic vertex-value algorithms (the class KickStarter supports).

A monotonic algorithm maintains one value per vertex.  An edge
``(u, v)`` with weight ``w`` *proposes* a value for ``v`` computed from
``Val(u)`` and ``w`` (the paper's ``EdgeFunction``, Table 3); the vertex
keeps the best proposal seen, where "best" is a fixed direction
(minimise or maximise).  Monotonicity — a better upstream value never
yields a worse proposal — is what makes incremental *addition*
processing trivially correct and what the trim-and-repair deletion
algorithm relies on.

Subclasses provide four pieces of data and one vectorised function:

* ``direction`` — ``"min"`` or ``"max"``;
* ``worst`` — the identity value under the reduction (``inf`` for min,
  typically ``0``/``-inf`` for max);
* ``source_value`` — the value pinned at the query source;
* ``proposals(src_values, weights)`` — vectorised edge function.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import AlgorithmError

__all__ = ["MonotonicAlgorithm"]


class MonotonicAlgorithm(ABC):
    """Base class for Table 3 algorithms.

    The class is stateless: engines own the vertex-value arrays and call
    back into the algorithm for proposals and reductions.
    """

    #: Short name used in reports and the registry.
    name: str = "?"
    #: ``"min"`` if smaller values are better, ``"max"`` otherwise.
    direction: str = "min"
    #: The neutral (worst possible) vertex value.
    worst: float = np.inf
    #: Value pinned at the source vertex.
    source_value: float = 0.0
    #: Whether edge weights influence proposals (BFS ignores them).
    uses_weights: bool = True
    #: Whether a converged state is cheaper to repair after deletions by
    #: value-support tagging (``trim_and_repair(tagging="support")``)
    #: than to recompute.  False where the edge function hands a value on
    #: unchanged (``min``/``max`` of value and weight): its plateaus of
    #: equal values match along whole regions, which support tagging then
    #: trims — a median of 3 260 of LJ/16's 4 096 vertices one append
    #: after the root, against 19 (BFS), 8 (SSSP) and 11 (Viterbi).
    trims_by_support: bool = True

    @abstractmethod
    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Vectorised edge function: value proposed along each edge."""

    # -- derived helpers ---------------------------------------------------
    def __init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise AlgorithmError(f"direction must be 'min' or 'max', got {self.direction!r}")

    def initial_values(self, num_vertices: int, source: int) -> np.ndarray:
        """Fresh value array: everything ``worst`` except the source."""
        if not 0 <= source < num_vertices:
            raise AlgorithmError(f"source {source} out of range [0, {num_vertices})")
        values = np.full(num_vertices, self.worst, dtype=np.float64)
        values[source] = self.source_value
        return values

    def reduce_at(self, values: np.ndarray, targets: np.ndarray, proposals: np.ndarray) -> None:
        """Scatter-reduce proposals into ``values`` at ``targets`` in place."""
        if self.direction == "min":
            np.minimum.at(values, targets, proposals)
        else:
            np.maximum.at(values, targets, proposals)

    def reduce_segments(self, proposals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The best proposal of every segment ``starts[k]:starts[k + 1]``
        (the last runs to the end; none may be empty, or it reads its
        neighbour's first element).  NaN is skipped: a segment's best is
        NaN only if all of it is."""
        reduce = np.fmin if self.direction == "min" else np.fmax
        return reduce.reduceat(proposals, starts)

    def better(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise: is ``a`` strictly better than ``b``?"""
        return np.less(a, b) if self.direction == "min" else np.greater(a, b)

    def best(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise best of two value arrays."""
        return np.minimum(a, b) if self.direction == "min" else np.maximum(a, b)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
