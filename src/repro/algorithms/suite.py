"""The five benchmark algorithms of the paper (Table 3).

==========  =====================================================  =========
Algorithm   EdgeFunction for edge ``(u, v)``                       Reduction
==========  =====================================================  =========
BFS         ``Val(u) + 1``                                         min
SSSP        ``Val(u) + wt(u, v)``                                  min
SSWP        ``min(Val(u), wt(u, v))``                              max
SSNP        ``max(Val(u), wt(u, v))``                              min
Viterbi     ``Val(u) / wt(u, v)``                                  max
==========  =====================================================  =========

All five are monotonic: an improved upstream value can only improve the
proposal, so incremental additions never require retraction.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm

__all__ = ["BFS", "SSSP", "SSWP", "SSNP", "Viterbi"]


class BFS(MonotonicAlgorithm):
    """Breadth-first search: hop distance from the source."""

    name = "BFS"
    direction = "min"
    worst = np.inf
    source_value = 0.0
    uses_weights = False

    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return src_values + 1.0


class SSSP(MonotonicAlgorithm):
    """Single-source shortest path (non-negative weights)."""

    name = "SSSP"
    direction = "min"
    worst = np.inf
    source_value = 0.0

    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return src_values + weights


class SSWP(MonotonicAlgorithm):
    """Single-source widest path: maximise the minimum edge weight."""

    name = "SSWP"
    direction = "max"
    worst = 0.0
    source_value = np.inf
    trims_by_support = False

    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.minimum(src_values, weights)


class SSNP(MonotonicAlgorithm):
    """Single-source narrowest path: minimise the maximum edge weight."""

    name = "SSNP"
    direction = "min"
    worst = np.inf
    source_value = 0.0
    trims_by_support = False

    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.maximum(src_values, weights)


class Viterbi(MonotonicAlgorithm):
    """Viterbi-style path score, per the paper: maximise ``Val(u)/wt``.

    With weights >= 1 the score decays along a path, so this behaves as
    a maximum-reliability query with reciprocal edge weights.
    """

    name = "Viterbi"
    direction = "max"
    worst = 0.0
    source_value = 1.0

    def proposals(self, src_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return src_values / weights
