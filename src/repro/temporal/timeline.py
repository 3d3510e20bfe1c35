"""Timeline result types and their stable JSON wire encoding.

The engine produces one result document per spec, carrying NumPy
arrays; this module round-trips them through JSON.  The encoding rules
are fixed so two runs over the same data serialise byte-identically:

* float vectors use the service's one row codec
  (:func:`repro.core.results.encode_float_row`) — non-finite cells
  become the strings ``"inf"`` / ``"-inf"`` / ``"nan"`` (JSON has none),
  everything else a plain float;
* integer vectors (versions, counts) stay plain integers;
* :func:`dumps_stable` serialises with sorted keys and compact
  separators, so the byte stream is a function of the content alone.

Which fields are float vs int vectors is keyed off the result's mode
and aggregate (see :data:`repro.temporal.plan.INT_AGGREGATES`), never
guessed from the payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.core.results import decode_float_row, encode_float_row
from repro.errors import ProtocolError
from repro.temporal.plan import INT_AGGREGATES

__all__ = [
    "TemporalAnswer",
    "decode_results",
    "dumps_stable",
    "encode_results",
]


@dataclass
class TemporalAnswer:
    """One answered temporal request: per-spec results plus accounting.

    ``ranges_evaluated`` counts the coalesced ranges actually descended
    (one Triangular Grid walk each); ``snapshots_scanned`` sums their
    widths — the cost-model numbers the metrics and the bench report.
    """

    algorithm: str
    source: int
    window_first: int
    window_last: int
    results: List[Dict[str, Any]] = field(default_factory=list)
    ranges_evaluated: int = 0
    snapshots_scanned: int = 0
    epoch: int = 0


def _int_list(vector: Sequence[int]) -> List[int]:
    return [int(value) for value in vector]


def _float_fields(result: Dict[str, Any]) -> List[str]:
    """Names of this result's float-vector fields, by mode."""
    mode = result.get("mode")
    if mode in ("point", "timeline", "rollup"):
        return ["values"]
    if mode == "diff":
        return ["delta"]
    if mode == "aggregate":
        agg = result.get("agg")
        if agg == "top_volatile" or agg in INT_AGGREGATES:
            return []
        return ["values"]
    raise ProtocolError(f"unknown temporal result mode {mode!r}")


def _int_fields(result: Dict[str, Any]) -> List[str]:
    """Names of this result's integer-vector fields, by mode."""
    if result.get("mode") != "aggregate":
        return []
    agg = result.get("agg")
    if agg == "top_volatile":
        return ["vertices", "counts"]
    if agg in INT_AGGREGATES:
        return ["values"]
    return []


def encode_results(results: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Engine results → JSON-safe documents (wire form)."""
    encoded: List[Dict[str, Any]] = []
    for result in results:
        doc = dict(result)
        for name in _float_fields(result):
            doc[name] = encode_float_row(result[name])
        for name in _int_fields(result):
            doc[name] = _int_list(result[name])
        encoded.append(doc)
    return encoded


def decode_results(encoded: Any) -> List[Dict[str, Any]]:
    """Inverse of :func:`encode_results`: vectors back to NumPy arrays."""
    if not isinstance(encoded, list):
        raise ProtocolError("temporal response carries no results list")
    decoded: List[Dict[str, Any]] = []
    for doc in encoded:
        if not isinstance(doc, dict):
            raise ProtocolError("each temporal result must be a JSON object")
        result = dict(doc)
        for name in _float_fields(doc):
            result[name] = decode_float_row(doc.get(name, []))
        for name in _int_fields(doc):
            result[name] = np.asarray(doc.get(name, []), dtype=np.int64)
        decoded.append(result)
    return decoded


def dumps_stable(doc: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, no NaN escape."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
