"""Deterministic edge-weight functions.

In the evolving-graph model a weight is a fixed property of an edge
``(u, v)``: an edge deleted at snapshot *t* and re-added at snapshot
*t+k* has the same weight both times.  We therefore derive weights
deterministically from the edge endpoints (plus a seed) instead of
storing them alongside every edge set; any CSR materialised from any
snapshot, common graph, or delta batch automatically agrees on weights.

:class:`HashWeights` uses a SplitMix64-style integer mix, vectorised
with NumPy ``uint64`` arithmetic.  Weight functions compare and hash by
their parameters, so equal ones share memoised CSRs
(:meth:`repro.core.common.CommonGraphDecomposition.plan`).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = ["WeightFn", "UnitWeights", "HashWeights", "default_weights"]


class WeightFn(Protocol):
    """Callable mapping parallel ``(sources, targets)`` arrays to weights."""

    def __call__(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Return a float64 weight per edge."""


class UnitWeights:
    """All edges weigh 1.0 (used by BFS and unweighted queries)."""

    def __call__(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(sources).shape, dtype=np.float64)

    # Weight functions compare by value: they key the per-decomposition
    # plan memo, and callers construct an equal one per query.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitWeights)

    def __hash__(self) -> int:
        return hash(UnitWeights)

    def __repr__(self) -> str:
        return "UnitWeights()"


class HashWeights:
    """Deterministic pseudo-random integer weights in ``[1, max_weight]``.

    Parameters
    ----------
    max_weight:
        Inclusive upper bound for the weight values.
    seed:
        Mix seed; two :class:`HashWeights` with the same seed and bound
        agree on every edge.
    """

    def __init__(self, max_weight: int = 64, seed: int = 0) -> None:
        if max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        self.max_weight = int(max_weight)
        self.seed = int(seed)

    def __call__(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        # SplitMix64 finaliser over the packed (u << 32 | v) ^ seed code,
        # in place: one code array and one scratch, whatever the batch.
        src = np.asarray(sources, dtype=np.int64).view(np.uint64)
        dst = np.asarray(targets, dtype=np.int64).view(np.uint64)
        x = src << np.uint64(32)
        x |= dst
        x ^= np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        x += np.uint64(0x9E3779B97F4A7C15)
        scratch = x >> np.uint64(30)
        x ^= scratch
        x *= np.uint64(0xBF58476D1CE4E5B9)
        np.right_shift(x, np.uint64(27), out=scratch)
        x ^= scratch
        x *= np.uint64(0x94D049BB133111EB)
        np.right_shift(x, np.uint64(31), out=scratch)
        x ^= scratch
        x %= np.uint64(self.max_weight)
        weights = x.astype(np.float64)
        weights += 1.0
        return weights

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HashWeights)
                and (self.max_weight, self.seed)
                == (other.max_weight, other.seed))

    def __hash__(self) -> int:
        return hash((HashWeights, self.max_weight, self.seed))

    def __repr__(self) -> str:
        return f"HashWeights(max_weight={self.max_weight}, seed={self.seed})"


def default_weights() -> WeightFn:
    """The weight function used by the benchmark harness (1..64)."""
    return HashWeights(max_weight=64, seed=0)
