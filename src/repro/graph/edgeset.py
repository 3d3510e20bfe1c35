"""Canonical edge sets with fast set algebra.

An :class:`EdgeSet` stores directed edges ``(u, v)`` as a sorted, unique
array of 64-bit codes ``(u << 32) | v``.  All of the CommonGraph
machinery (common-graph intersection, Triangular-Grid surplus sets,
delta batches) reduces to set algebra over these codes, which NumPy's
sorted-array routines execute in ``O(n log n)`` or better.

Edge weights are deliberately *not* stored here: in the evolving-graph
model of the paper an edge's weight is a fixed property of the edge
``(u, v)`` itself (an edge that is deleted and later re-added keeps its
weight), so weights are recovered from a deterministic
:mod:`repro.graph.weights` function when a CSR is materialised.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.errors import EdgeSetError

__all__ = ["EdgeSet", "encode_edges", "decode_edges", "MAX_VERTEX_ID"]

#: Largest vertex id representable in the packed edge code.
MAX_VERTEX_ID = (1 << 31) - 1

_SHIFT = np.int64(32)
_MASK = np.int64((1 << 32) - 1)


def encode_edges(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Pack ``(u, v)`` pairs into int64 codes ``(u << 32) | v``."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise EdgeSetError("sources and targets must have the same shape")
    if sources.size and (
        sources.min() < 0
        or targets.min() < 0
        or sources.max() > MAX_VERTEX_ID
        or targets.max() > MAX_VERTEX_ID
    ):
        raise EdgeSetError(
            f"vertex ids must be in [0, {MAX_VERTEX_ID}]"
        )
    return (sources << _SHIFT) | targets


def decode_edges(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack int64 edge codes into ``(sources, targets)`` arrays."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >> _SHIFT, codes & _MASK


class EdgeSet:
    """An immutable set of directed edges.

    Supports the standard set operators (``|``, ``-``, ``&``, ``^``),
    containment tests and iteration, all backed by sorted NumPy arrays.

    Instances are treated as immutable; the underlying ``codes`` array
    must not be modified by callers.
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: np.ndarray | None = None, *,
                 _trusted: bool = False) -> None:
        if codes is None:
            self._codes = np.empty(0, dtype=np.int64)
        elif _trusted:
            self._codes = codes
        else:
            codes = np.asarray(codes, dtype=np.int64)
            self._codes = np.unique(codes)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_arrays(cls, sources: np.ndarray, targets: np.ndarray) -> "EdgeSet":
        """Build from parallel source/target arrays (deduplicating)."""
        return cls(encode_edges(sources, targets))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "EdgeSet":
        """Build from an iterable of ``(u, v)`` tuples."""
        pairs = list(pairs)
        if not pairs:
            return cls()
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise EdgeSetError("pairs must be (u, v) tuples")
        return cls.from_arrays(arr[:, 0], arr[:, 1])

    @classmethod
    def empty(cls) -> "EdgeSet":
        return cls()

    # -- accessors ------------------------------------------------------
    @property
    def codes(self) -> np.ndarray:
        """Sorted unique int64 edge codes (do not mutate)."""
        return self._codes

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` arrays in code order."""
        return decode_edges(self._codes)

    @property
    def sources(self) -> np.ndarray:
        return self.arrays()[0]

    @property
    def targets(self) -> np.ndarray:
        return self.arrays()[1]

    def max_vertex(self) -> int:
        """Largest vertex id referenced, or ``-1`` if empty."""
        if not len(self):
            return -1
        src, dst = self.arrays()
        return int(max(src.max(), dst.max()))

    # -- set protocol ---------------------------------------------------
    def __len__(self) -> int:
        return int(self._codes.size)

    def __bool__(self) -> bool:
        return self._codes.size > 0

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        src, dst = self.arrays()
        return iter(zip(src.tolist(), dst.tolist()))

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        u, v = edge
        code = np.int64((int(u) << 32) | int(v))
        idx = np.searchsorted(self._codes, code)
        return bool(idx < self._codes.size and self._codes[idx] == code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self._codes.size == other._codes.size and bool(
            np.array_equal(self._codes, other._codes)
        )

    def __hash__(self) -> int:
        return hash(self._codes.tobytes())

    # -- algebra ----------------------------------------------------------
    #
    # The codes arrays are always sorted and unique, so membership of a
    # small set in a large one is a binary search.  These fast paths
    # matter: the evolving-graph pipeline applies thousands of small
    # delta batches to multi-million-edge sets, and NumPy's
    # ``setdiff1d``/``union1d`` would re-sort the large array each time.

    def union(self, other: "EdgeSet") -> "EdgeSet":
        big, small = (self, other) if len(self) >= len(other) else (other, self)
        if len(small) == 0:
            return EdgeSet(big._codes, _trusted=True)
        if len(small) * 16 < len(big):
            fresh = small._codes[~big.contains_codes(small._codes)]
            if fresh.size == 0:
                return EdgeSet(big._codes, _trusted=True)
            positions = np.searchsorted(big._codes, fresh)
            return EdgeSet(np.insert(big._codes, positions, fresh), _trusted=True)
        return EdgeSet(np.union1d(self._codes, other._codes), _trusted=True)

    def difference(self, other: "EdgeSet") -> "EdgeSet":
        if len(self) == 0 or len(other) == 0:
            return EdgeSet(self._codes, _trusted=True)
        if len(other) * 16 < len(self):
            # Find the few codes to drop instead of testing every code
            # to keep; np.delete always returns a fresh array.
            stale = other._codes[self.contains_codes(other._codes)]
            positions = np.searchsorted(self._codes, stale)
            return EdgeSet(np.delete(self._codes, positions), _trusted=True)
        # Binary-search membership of self in other: O(n log m), never
        # re-sorting either side.
        keep = ~other.contains_codes(self._codes)
        return EdgeSet(self._codes[keep], _trusted=True)

    def intersection(self, other: "EdgeSet") -> "EdgeSet":
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        if len(small) == 0:
            return EdgeSet()
        hits = big.contains_codes(small._codes)
        return EdgeSet(small._codes[hits], _trusted=True)

    def symmetric_difference(self, other: "EdgeSet") -> "EdgeSet":
        return EdgeSet(np.setxor1d(self._codes, other._codes), _trusted=True)

    __or__ = union
    __sub__ = difference
    __and__ = intersection
    __xor__ = symmetric_difference

    def isdisjoint(self, other: "EdgeSet") -> bool:
        return len(self.intersection(other)) == 0

    def issubset(self, other: "EdgeSet") -> bool:
        return len(self.difference(other)) == 0

    def issuperset(self, other: "EdgeSet") -> bool:
        return other.issubset(self)

    def contains_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an array of edge codes."""
        codes = np.asarray(codes, dtype=np.int64)
        if self._codes.size == 0:
            return np.zeros(codes.shape, dtype=bool)
        idx = np.minimum(self._codes.searchsorted(codes), self._codes.size - 1)
        return self._codes[idx] == codes

    def __repr__(self) -> str:
        preview = ", ".join(f"({u},{v})" for u, v in list(self)[:4])
        more = ", ..." if len(self) > 4 else ""
        return f"EdgeSet(n={len(self)}, [{preview}{more}])"
