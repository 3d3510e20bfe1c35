"""Small shared utilities: vectorised range concatenation and timers.

These helpers are deliberately dependency-free (NumPy only) and are used
throughout the graph engines, where ``expand_ranges`` is the core trick
that makes frontier-based edge gathering a vectorised operation instead
of a Python loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

import numpy as np

__all__ = ["concat_ranges", "expand_ranges", "Stopwatch", "PhaseTimer"]


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k] + lengths[k])`` for all
    ``k`` (``int64`` arrays, ``lengths >= 0``), with no filtering pass: a
    zero-length range is a zero-length ``repeat``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    # Position p of range k holds starts[k] + (p - offset of range k).
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lengths), lengths)


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], stops[k])`` for all ``k``, vectorised.

    Equivalent to ``np.concatenate([np.arange(a, b) for a, b in
    zip(starts, stops)])`` but without a Python-level loop.  Empty ranges
    (``stops[k] <= starts[k]``) contribute nothing.

    Parameters
    ----------
    starts, stops:
        Integer arrays of equal length describing half-open ranges.

    Returns
    -------
    numpy.ndarray
        ``int64`` array with the concatenated range values.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if starts.shape != stops.shape:
        raise ValueError("starts and stops must have the same shape")
    return expand_ranges(starts, np.maximum(stops - starts, 0))


class Stopwatch:
    """Accumulating stopwatch; ``with sw: ...`` adds elapsed seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds += time.perf_counter() - self._t0
        self.calls += 1

    def reset(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stopwatch(seconds={self.seconds:.6f}, calls={self.calls})"


@dataclass
class PhaseTimer:
    """Named phase timers, e.g. ``mutation_add`` / ``incremental_del``.

    Used by the benchmark harness to reproduce the execution-time
    breakdown of Figure 11 in the paper.
    """

    phases: Dict[str, Stopwatch] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[Stopwatch]:
        sw = self.phases.setdefault(name, Stopwatch())
        with sw:
            yield sw

    def seconds(self, name: str) -> float:
        sw = self.phases.get(name)
        return sw.seconds if sw is not None else 0.0

    def total(self) -> float:
        return sum(sw.seconds for sw in self.phases.values())

    def as_dict(self) -> Dict[str, float]:
        return {name: sw.seconds for name, sw in self.phases.items()}

    def merge(self, other: "PhaseTimer") -> None:
        """Add ``other``'s accumulated times into this timer."""
        for name, sw in other.phases.items():
            mine = self.phases.setdefault(name, Stopwatch())
            mine.seconds += sw.seconds
            mine.calls += sw.calls
