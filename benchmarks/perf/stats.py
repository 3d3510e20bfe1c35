"""Order statistics the reports use, with the sample-count rule built in."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

from spec import MIN_TAIL_SAMPLES, tail_supported

__all__ = ["TooFewSamples", "percentile", "median", "round_spread"]


class TooFewSamples(ValueError):
    """The percentile asked for has fewer than ten samples beyond it."""


def percentile(samples: Sequence[float], q: float,
               enforce: bool = True) -> float:
    """The ``q``-th percentile (nearest rank, no interpolation).

    The median is always available; any other percentile raises
    :class:`TooFewSamples` unless at least :data:`MIN_TAIL_SAMPLES` lie
    beyond it (p90 needs n >= 100, p95 n >= 200), because a tail read
    off a handful of samples is one slow request, not a percentile.
    ``enforce=False`` is for per-round noise estimates only, never for a
    reported value.
    """
    if not samples:
        raise TooFewSamples("no samples")
    if enforce and q != 50 and not tail_supported(len(samples), q):
        raise TooFewSamples(
            f"p{q:g} of n={len(samples)} has fewer than "
            f"{MIN_TAIL_SAMPLES} samples beyond it"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median(samples: Sequence[float]) -> Optional[float]:
    return statistics.median(samples) if samples else None


def round_spread(per_round: Sequence[float]) -> float:
    """(max - min) / median over a run's rounds."""
    if len(per_round) < 2:
        return 0.0
    return (max(per_round) - min(per_round)) / statistics.median(per_round)
