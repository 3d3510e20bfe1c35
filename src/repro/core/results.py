"""Result container shared by the evolving-graph query evaluators, plus the leaf codecs
for held or shipped results: a range answer as *base + sparse Δ*, the JSON float row."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.kickstarter.engine import EngineCounters
from repro.utils import PhaseTimer

__all__ = ["CompactRange", "EvolvingQueryResult", "changed_cells", "compact_range",
           "decode_float_row", "encode_float_row", "expand_range", "narrowed"]

#: Base row + per later snapshot ``(indices, values)`` of the changed cells.
CompactRange = Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]

#: Dtypes :func:`narrowed` tries for a base row, narrowest first: BFS
#: levels and integer-weight distances fit float16.
_NARROW_DTYPES = (np.float16, np.float32)


def changed_cells(previous: np.ndarray, row: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, cells)`` of the float64 ``row`` cells whose *bit pattern*
    differs from ``previous`` (so ``-0.0``, NaN payloads and denormals
    survive ``previous.copy()[indices] = cells``); ``cells`` is a copy."""
    indices = np.flatnonzero(row.view(np.int64) != previous.view(np.int64))
    return indices, row[indices]


def compact_range(values: Sequence[np.ndarray]) -> CompactRange:
    """k >= 1 snapshot vectors → the first plus, per later snapshot, its
    :func:`changed_cells` against the snapshot before; no aliasing."""
    rows = [np.asarray(row, dtype=np.float64) for row in values]
    return rows[0].copy(), [changed_cells(previous, row)
                            for previous, row in zip(rows, rows[1:])]


def narrowed(compact: CompactRange) -> CompactRange:
    """``compact`` with its base row in the narrowest float dtype that
    widens back to every cell's bit pattern.  The casts cost ~15 copies
    of the row (float16 is converted in software), so this pays only for
    a form built rarely and held long."""
    base, changes = compact
    bits = base.view(np.int64)
    with np.errstate(all="ignore"):
        for dtype in _NARROW_DTYPES:
            narrow = base.astype(dtype)
            if np.array_equal(narrow.astype(np.float64).view(np.int64), bits):
                return narrow, changes
    return compact


def expand_range(compact: CompactRange) -> List[np.ndarray]:
    """Inverse of :func:`compact_range` (and of :func:`narrowed`): fresh,
    independent float64 rows."""
    rows = [compact[0].astype(np.float64)]
    for indices, cells in compact[1]:
        rows.append(rows[-1].copy())
        rows[-1][indices] = cells
    return rows


def encode_float_row(row: Sequence[float]) -> List[Any]:
    """Float vector → JSON-safe list: JSON has no non-finite numbers, so
    those cells (only) become the strings ``"inf"`` / ``"-inf"`` / ``"nan"``."""
    array = np.asarray(row, dtype=np.float64)
    cells: List[Any] = array.tolist()
    for index in np.flatnonzero(~np.isfinite(array)).tolist():
        cells[index] = str(cells[index])
    return cells


def decode_float_row(cells: Any) -> np.ndarray:
    """Strict inverse of :func:`encode_float_row`: anything else — not a
    list, ``null`` (NumPy would read it as NaN), bools, nesting, other
    strings — is a :class:`ProtocolError`."""
    kinds = list(map(type, cells)) if isinstance(cells, list) else [None]
    if not set(kinds) <= {float, int, str}:
        raise ProtocolError("malformed value row: expected a flat list of numbers")
    try:
        row = np.array(cells, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed value row: {exc}") from exc
    odd = np.flatnonzero(~np.isfinite(row)).tolist()
    if len(odd) != kinds.count(str) or not {cells[i] for i in odd} <= {"inf", "-inf", "nan"}:
        raise ProtocolError('malformed value row: strings are only "inf", "-inf", "nan"')
    return row


@dataclass
class EvolvingQueryResult:
    """Converged per-snapshot values plus cost accounting."""

    strategy: str = ""
    snapshot_values: List[np.ndarray] = field(default_factory=list)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    counters: EngineCounters = field(default_factory=EngineCounters)
    #: Total additions streamed (the paper's schedule-cost metric).
    additions_processed: int = 0
    #: Number of incremental stabilisations executed (tree edges).
    stabilisations: int = 0
    #: The query's values on the common graph, where the walk started
    #: (``None`` until a walk ran).
    root: Optional[np.ndarray] = None

    @property
    def total_seconds(self) -> float:
        return self.timer.total()

    @property
    def work_seconds(self) -> float:
        """Incremental work only — the one-off convergence on the common
        graph is excluded, matching the paper's Table 4 accounting (the
        from-scratch costs of the baselines are assumed similar and net
        out of the comparison)."""
        return self.timer.total() - self.timer.seconds("initial_compute")

    def phase_seconds(self) -> Dict[str, float]:
        return self.timer.as_dict()
