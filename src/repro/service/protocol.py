"""The service wire protocol: JSON lines over a byte stream.

One request per line, one response per line, UTF-8 JSON with no
embedded newlines — trivially debuggable with ``nc`` and stdlib-only on
both ends.  Requests carry an ``op`` plus op-specific fields and an
optional client-chosen ``id`` that is echoed back, so a client may
pipeline requests and match responses.

Operations::

    {"op": "ping"}
    {"op": "status"}
    {"op": "query", "algorithm": "SSSP", "source": 3,
     "first": 2, "last": 5}            # first/last optional => window
    {"op": "query", ..., "if_none_match": "<tag>"}   # or "": holds none
    {"op": "temporal", "algorithm": "SSSP", "source": 3,
     "queries": [{"mode": "timeline", "vertex": 7}, ...]}
    {"op": "ingest", "additions": [[u, v], ...],
     "deletions": [[u, v], ...]}
    {"op": "update", "kind": "insert", "edge": [u, v]}
    {"op": "update", "kind": "compact"}   # force a live-tip fold
    {"op": "shutdown"}

Every op is declared once, as a row of :data:`OPS`: which fields it may
carry, whether it takes ``timeout_ms`` (the client's end-to-end budget,
capped server-side by the configured ``request_timeout`` — query,
temporal, ingest and update all do), which admission lane guards it,
and how the fleet router routes it.  The server and the router
dispatch from that table; ``docs/service.md`` renders it.

Responses are ``{"ok": true, ...payload}`` or ``{"ok": false,
"error": "...", "error_type": "..."}``; query responses additionally
carry ``values``: the first snapshot's per-vertex row plus, per later snapshot,
``[indices, row]`` of only the cells that differ from the snapshot before
(most vertices keep one value across a range).  Three snapshots::

    "values": {"base": [0.0, 2.0, "inf", 5.0],
               "changes": [[[2], [7.0]], [[], []]]}   # v2 reached, then same

JSON has no non-finite numbers: those cells are the strings ``"inf"`` /
``"-inf"`` / ``"nan"``.  ``status`` reports :data:`WIRE_VERSION`; a version-1
payload (one dense row per snapshot) is a :class:`ProtocolError`, never wrong numbers.

A query carrying ``if_none_match`` is *conditional*: a result-cache hit
answering it carries ``values_tag`` (:func:`values_tag` of the answer)
and omits ``values`` when that equals the request's tag — the client
already holds them.  Any other answer carries no tag and ships its
values; a request without the field gets the reply it always got.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.results import (
    CompactRange,
    compact_range,
    decode_float_row,
    encode_float_row,
    expand_range,
)
from repro.errors import ProtocolError
from repro.evolving.delta import DeltaBatch
from repro.graph.edgeset import EdgeSet

__all__ = [
    "Encoded",
    "MAX_LINE_BYTES",
    "OPS",
    "OpSpec",
    "UPDATE_WIRE_KINDS",
    "WIRE_VERSION",
    "decode_line",
    "decode_values",
    "encode_line",
    "encode_values",
    "parse_edge_pairs",
    "parse_ingest_batch",
    "parse_update",
    "validate_request",
    "values_tag",
]

#: Hard cap on one protocol line; a longer line is a malformed request.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Reported by ``status``; 2 = query ``values`` are base + sparse changes, not dense rows.
WIRE_VERSION = 2

#: A ``values_tag``: the hex blake2b-128 digest :func:`values_tag` spells.
_TAG = re.compile(r"[0-9a-f]{32}")


@dataclass(frozen=True)
class OpSpec:
    """One wire op: what it may carry and how it is served and routed."""

    #: Op-specific request fields (``op``/``id`` are always allowed).  An
    #: op that declares none (ping, status, shutdown) ignores extras.
    fields: FrozenSet[str] = frozenset()
    #: May carry ``timeout_ms``.
    timeout: bool = False
    #: Admission lane on a replica: ``"query"`` / ``"ingest"`` / ``"live"``.
    lane: Optional[str] = None
    #: Fleet routing: ``"local"`` (the router answers), ``"by-source"``
    #: (consistent-hash owner, with failover), ``"fan-out"`` (every
    #: replica in rotation, receipts must agree).
    routing: str = "local"


def _fields(*names: str) -> FrozenSet[str]:
    return frozenset(names)


#: The wire vocabulary — the single declaration of every op.
OPS: Mapping[str, OpSpec] = {
    "ping": OpSpec(),
    "status": OpSpec(),
    "query": OpSpec(
        fields=_fields("algorithm", "source", "first", "last",
                       "if_none_match"),
        timeout=True, lane="query", routing="by-source",
    ),
    "temporal": OpSpec(
        fields=_fields("algorithm", "source", "queries"),
        timeout=True, lane="query", routing="by-source",
    ),
    "ingest": OpSpec(
        fields=_fields("additions", "deletions"),
        timeout=True, lane="ingest", routing="fan-out",
    ),
    "update": OpSpec(
        fields=_fields("kind", "edge"),
        timeout=True, lane="live", routing="fan-out",
    ),
    "shutdown": OpSpec(),
}

#: ``update`` verbs: single-edge mutations plus the explicit fold.
UPDATE_WIRE_KINDS = ("insert", "delete", "compact")


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


class Encoded(bytes):
    """One field value already in wire form: :func:`encode_line` splices
    these bytes verbatim.  Build it with ``Encoded.of(value)``."""

    @classmethod
    def of(cls, value: Any) -> "Encoded":
        return cls(_dumps(value))


def encode_line(message: Dict[str, Any]) -> bytes:
    """One JSON-lines frame (compact separators, trailing newline).

    The frame of a message with :class:`Encoded` fields is byte-identical
    to the frame of the message holding the values they were made of.
    """
    parts: List[bytes] = []
    plain: Dict[str, Any] = {}
    for key, value in message.items():
        if isinstance(value, Encoded):
            if plain:
                parts.append(_dumps(plain)[1:-1])
                plain = {}
            parts.append(_dumps(key) + b":" + value)
        else:
            plain[key] = value
    if plain:
        parts.append(_dumps(plain)[1:-1])
    return b"{" + b",".join(parts) + b"}\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    return doc


def _require_int(doc: Dict[str, Any], field: str,
                 optional: bool = False) -> Optional[int]:
    value = doc.get(field)
    if value is None:
        if optional:
            return None
        raise ProtocolError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer")
    return value


def validate_request(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Check shape and types of a request; returns it unchanged.

    Snapshot ranges are rejected here when they are malformed *on
    their face* (negative versions, ``first > last``) — the client
    gets a clean :class:`ProtocolError` payload instead of a
    server-side evaluation error.  Semantics that need live state
    (window bounds, algorithm names) are validated by the service
    state, which raises the same error type for out-of-window ranges.
    """
    op = doc.get("op")
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {tuple(OPS)}"
        )
    if spec.fields:
        allowed = spec.fields | ({"op", "id", "timeout_ms"} if spec.timeout
                                 else {"op", "id"})
        unknown = set(doc) - allowed
        if unknown:
            raise ProtocolError(f"unknown {op} fields {sorted(unknown)}")
    if "algorithm" in spec.fields:
        if not isinstance(doc.get("algorithm"), str):
            raise ProtocolError("field 'algorithm' must be a string")
        _require_int(doc, "source")
    if "first" in spec.fields:
        first = _require_int(doc, "first", optional=True)
        last = _require_int(doc, "last", optional=True)
        for name, value in (("first", first), ("last", last)):
            if value is not None and value < 0:
                raise ProtocolError(
                    f"field {name!r} must be a non-negative snapshot "
                    f"version, got {value}"
                )
        if first is not None and last is not None and first > last:
            raise ProtocolError(
                f"version range [{first}, {last}] is reversed "
                "(first > last)"
            )
    if "if_none_match" in spec.fields and "if_none_match" in doc:
        tag = doc["if_none_match"]
        if not (isinstance(tag, str) and (tag == "" or _TAG.fullmatch(tag))):
            raise ProtocolError(
                "field 'if_none_match' must be \"\" or a values_tag "
                "(32 lowercase hex digits)"
            )
    if "queries" in spec.fields:
        from repro.temporal.plan import parse_specs

        parse_specs(doc.get("queries"))
    if "kind" in spec.fields:
        parse_update(doc)
    if spec.timeout:
        _require_timeout(doc)
    return doc


def _require_timeout(doc: Dict[str, Any]) -> Optional[int]:
    """``timeout_ms`` — the client's end-to-end budget, if any.

    The server caps it with its own ``request_timeout``; the budget then
    covers admission queueing, (ingest) retries and execution as one
    deadline.
    """
    timeout_ms = _require_int(doc, "timeout_ms", optional=True)
    if timeout_ms is not None and timeout_ms <= 0:
        raise ProtocolError("field 'timeout_ms' must be a positive integer")
    return timeout_ms


def parse_edge_pairs(pairs: Any, field: str) -> EdgeSet:
    """``[[u, v], ...]`` from the wire into an :class:`EdgeSet`."""
    if pairs is None:
        return EdgeSet.empty()
    if not isinstance(pairs, list):
        raise ProtocolError(f"field {field!r} must be a list of [u, v] pairs")
    for pair in pairs:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           and x >= 0 for x in pair)):
            raise ProtocolError(
                f"field {field!r} must contain [u, v] pairs of "
                f"non-negative integers"
            )
    return EdgeSet.from_pairs(tuple(map(tuple, pairs)))


def parse_ingest_batch(doc: Dict[str, Any]) -> DeltaBatch:
    """The Δ batch of an ``ingest`` request (additions/deletions pairs)."""
    from repro.errors import DeltaError

    additions = parse_edge_pairs(doc.get("additions"), "additions")
    deletions = parse_edge_pairs(doc.get("deletions"), "deletions")
    if not additions and not deletions:
        raise ProtocolError("ingest batch is empty")
    try:
        return DeltaBatch(additions=additions, deletions=deletions)
    except DeltaError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_update(
    doc: Dict[str, Any],
) -> Tuple[str, Optional[int], Optional[int]]:
    """``(kind, u, v)`` of an ``update`` request.

    ``kind`` is one of :data:`UPDATE_WIRE_KINDS`; ``insert``/``delete``
    carry exactly one ``edge`` pair, ``compact`` (the explicit fold)
    carries none — so ``(u, v)`` is ``(None, None)`` for it.
    """
    kind = doc.get("kind")
    if kind not in UPDATE_WIRE_KINDS:
        raise ProtocolError(
            f"unknown update kind {kind!r}; expected one of "
            f"{UPDATE_WIRE_KINDS}"
        )
    edge = doc.get("edge")
    if kind == "compact":
        if edge is not None:
            raise ProtocolError("a compact update carries no 'edge'")
        return kind, None, None
    if (not isinstance(edge, (list, tuple)) or len(edge) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       and x >= 0 for x in edge)):
        raise ProtocolError(
            "field 'edge' must be one [u, v] pair of non-negative integers"
        )
    return kind, int(edge[0]), int(edge[1])


def encode_values(values: Sequence[np.ndarray],
                  compact: Optional[CompactRange] = None) -> Dict[str, Any]:
    """A range answer in wire form (module docstring); round-trips bit
    for bit through :func:`decode_values`.  ``compact``, when the caller
    holds it, is ``compact_range(values)``, not computed again (and
    ``values`` is then not read)."""
    base, changes = compact_range(values) if compact is None else compact
    return {"base": encode_float_row(base),
            "changes": [[indices.tolist(), encode_float_row(cells)]
                        for indices, cells in changes]}


def values_tag(compact: CompactRange) -> str:
    """The content tag of a range answer: hex blake2b-128 of its compact
    form's bits (every segment length-prefixed).  Equal tags mean
    bit-identical rows, whichever replica or epoch computed them."""
    base, changes = compact
    digest = hashlib.blake2b(digest_size=16)

    def feed(array: np.ndarray, dtype: str) -> None:
        digest.update(len(array).to_bytes(8, "little"))
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())

    feed(base, "<f8")
    for indices, cells in changes:
        feed(indices, "<i8")
        feed(cells, "<f8")
    return digest.hexdigest()


def decode_values(encoded: Any) -> List[np.ndarray]:
    """Inverse of :func:`encode_values`: one float64 array per snapshot.
    Any other shape is a :class:`ProtocolError`."""
    if not isinstance(encoded, dict) or not isinstance(encoded.get("changes"), list):
        raise ProtocolError("query response carries no {base, changes} values "
                            f"(wire version {WIRE_VERSION}; 1 sent a list of rows)")
    base = decode_float_row(encoded.get("base"))
    changes = []
    for change in encoded["changes"]:
        if not isinstance(change, list) or len(change) != 2:
            raise ProtocolError("each change must be [indices, values]")
        indices, cells = change[0], decode_float_row(change[1])
        if (not isinstance(indices, list) or len(indices) != cells.size
                or set(map(type, indices)) - {int}
                or (indices and not 0 <= min(indices) <= max(indices) < base.size)):
            raise ProtocolError(
                f"change indices must be {cells.size} integers in [0, {base.size})")
        changes.append((np.array(indices, dtype=np.int64), cells))
    return expand_range((base, changes))
