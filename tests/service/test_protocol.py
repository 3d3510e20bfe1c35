"""Wire-protocol tests: framing, validation, value encoding, and the
op table that every layer dispatches from."""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.results import (
    compact_range,
    encode_float_row,
    expand_range,
    narrowed,
)
from repro.errors import ProtocolError
from repro.fleet.router import FleetRouter
from repro.service import ServiceClient, protocol
from repro.service.lineserver import LineServer
from repro.service.server import GraphService

from tests.service.conftest import seeded_answer


class TestFraming:
    def test_roundtrip(self):
        doc = {"op": "query", "algorithm": "SSSP", "source": 3}
        line = protocol.encode_line(doc)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert protocol.decode_line(line) == doc

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"{not json}\n")

    def test_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_oversized_line(self):
        line = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError):
            protocol.decode_line(line)


class TestValidateRequest:
    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.validate_request({"op": "explode"})

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            protocol.validate_request({})

    def test_query_requires_string_algorithm(self):
        with pytest.raises(ProtocolError, match="algorithm"):
            protocol.validate_request({"op": "query", "algorithm": 3,
                                       "source": 0})

    def test_query_requires_integer_source(self):
        with pytest.raises(ProtocolError, match="source"):
            protocol.validate_request({"op": "query", "algorithm": "BFS",
                                       "source": "zero"})

    def test_query_rejects_boolean_integers(self):
        with pytest.raises(ProtocolError):
            protocol.validate_request({"op": "query", "algorithm": "BFS",
                                       "source": True})

    def test_query_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown query fields"):
            protocol.validate_request({"op": "query", "algorithm": "BFS",
                                       "source": 0, "speed": "fast"})

    def test_query_optional_range(self):
        doc = {"op": "query", "algorithm": "BFS", "source": 0}
        assert protocol.validate_request(doc) is doc
        doc = {"op": "query", "algorithm": "BFS", "source": 0,
               "first": 1, "last": 2, "id": 7}
        assert protocol.validate_request(doc) is doc

    def test_query_rejects_negative_versions(self):
        # Regression: these used to reach the server and surface as a
        # SnapshotError from deep inside the evaluator.
        for field in ("first", "last"):
            with pytest.raises(ProtocolError, match="non-negative"):
                protocol.validate_request({"op": "query",
                                           "algorithm": "BFS",
                                           "source": 0, field: -1})

    def test_query_rejects_reversed_range(self):
        with pytest.raises(ProtocolError, match="reversed"):
            protocol.validate_request({"op": "query", "algorithm": "BFS",
                                       "source": 0, "first": 5, "last": 2})

    def test_ingest_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown ingest fields"):
            protocol.validate_request({"op": "ingest", "edges": []})

    def test_temporal_is_a_known_op(self):
        assert "temporal" in protocol.OPS

    def test_temporal_wellformed(self):
        doc = {"op": "temporal", "algorithm": "SSSP", "source": 3,
               "queries": [{"mode": "point", "as_of": 1}], "id": 9}
        assert protocol.validate_request(doc) is doc

    def test_temporal_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown temporal fields"):
            protocol.validate_request({
                "op": "temporal", "algorithm": "BFS", "source": 0,
                "queries": [{"mode": "point", "as_of": 0}], "speed": "fast",
            })

    def test_temporal_rejects_non_list_queries(self):
        with pytest.raises(ProtocolError, match="non-empty list"):
            protocol.validate_request({
                "op": "temporal", "algorithm": "BFS", "source": 0,
                "queries": {"mode": "point", "as_of": 0},
            })

    def test_temporal_rejects_bad_specs(self):
        for bad in ([{"mode": "warp"}],
                    [{"mode": "timeline", "vertex": 0,
                      "first": 4, "last": 1}],
                    [{"mode": "point", "as_of": -1}]):
            with pytest.raises(ProtocolError):
                protocol.validate_request({
                    "op": "temporal", "algorithm": "BFS", "source": 0,
                    "queries": bad,
                })

    def test_simple_ops(self):
        for op in ("ping", "status", "shutdown"):
            assert protocol.validate_request({"op": op})["op"] == op


class TestIngestParsing:
    def test_parse_edge_pairs(self):
        edges = protocol.parse_edge_pairs([[0, 1], [2, 3]], "additions")
        assert len(edges) == 2

    def test_parse_edge_pairs_rejects_bad_shapes(self):
        for bad in ("nope", [[0]], [[0, 1, 2]], [[-1, 2]], [[0, "1"]],
                    [[True, 1]]):
            with pytest.raises(ProtocolError):
                protocol.parse_edge_pairs(bad, "additions")

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            protocol.parse_ingest_batch({"op": "ingest"})

    def test_overlapping_add_delete_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_ingest_batch({
                "op": "ingest",
                "additions": [[0, 1]],
                "deletions": [[0, 1]],
            })

    def test_wellformed_batch(self):
        batch = protocol.parse_ingest_batch({
            "op": "ingest",
            "additions": [[0, 1], [1, 2]],
            "deletions": [[3, 4]],
        })
        assert batch.size == 3


_EDGE_CELLS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
               2.2250738585072014e-308, 1e308, -1e308]
_cells = st.one_of(st.floats(allow_nan=False), st.sampled_from(_EDGE_CELLS))


@st.composite
def value_matrices(draw, cells=_cells, dtype=np.float64):
    """k x V rows, k >= 1, V >= 0; a later row repeats the one before
    it, changes every cell, or changes a few."""
    width = draw(st.integers(0, 8))
    row = st.lists(cells, min_size=width, max_size=width)
    rows = [draw(row)]
    for _ in range(draw(st.integers(0, 4))):
        step = draw(st.sampled_from(("same", "all", "some")))
        if step == "same":
            rows.append(list(rows[-1]))
        elif step == "all":
            rows.append(draw(row))
        else:
            rows.append([draw(cells) if draw(st.booleans()) else cell
                         for cell in rows[-1]])
    return [np.asarray(r, dtype=dtype) for r in rows]


def bits(vector):
    return vector.view(np.int64).tolist()


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.float64
        assert bits(g) == bits(w)
        # Rows are independent: none aliases the input or a sibling.
        assert not any(np.shares_memory(g, other)
                       for other in [*want, *got[:index]])


def through_the_wire(vectors):
    """Full trip through JSON framing, exactly as the server sends it."""
    line = protocol.encode_line({"values": protocol.encode_values(vectors)})
    return protocol.decode_values(protocol.decode_line(line)["values"])


class TestValueEncoding:
    def test_infinities_become_strings(self):
        encoded = protocol.encode_values(
            [np.array([1.5, np.inf, -np.inf, np.nan])]
        )
        assert encoded == {"base": [1.5, "inf", "-inf", "nan"], "changes": []}

    def test_later_snapshots_ship_only_changed_cells(self):
        encoded = protocol.encode_values([
            np.array([0.0, 2.0, np.inf, 5.0]),
            np.array([0.0, 2.0, 7.0, 5.0]),
            np.array([0.0, 2.0, 7.0, 5.0]),
        ])
        assert encoded == {"base": [0.0, 2.0, "inf", 5.0],
                           "changes": [[[2], [7.0]], [[], []]]}

    def test_roundtrip_exact(self):
        vectors = [
            np.array([0.0, 1.0, np.inf]),
            np.array([0.1 + 0.2, -np.inf, 1e-300]),
            np.array([-0.0, -np.inf, 5e-324]),
        ]
        assert_bit_identical(through_the_wire(vectors), vectors)

    @given(value_matrices())
    def test_roundtrip_property(self, vectors):
        assert_bit_identical(through_the_wire(vectors), vectors)

    @given(value_matrices(cells=st.integers(-2**63, 2**63 - 1),
                          dtype=np.int64))
    def test_compact_form_keeps_every_bit_pattern(self, patterns):
        # In process (the result cache) even NaN payloads survive; the
        # wire canonicalises them to the one "nan".
        vectors = [row.view(np.float64) for row in patterns]
        assert_bit_identical(expand_range(compact_range(vectors)), vectors)
        assert_bit_identical(expand_range(narrowed(compact_range(vectors))),
                             vectors)

    def test_compact_answer_is_a_fraction_of_the_dense_one(self):
        answer = seeded_answer()
        dense = protocol.encode_line(
            {"values": [encode_float_row(row) for row in answer]}
        )
        line = protocol.encode_line({"values": protocol.encode_values(answer)})
        assert len(line) * 5 <= len(dense)
        assert_bit_identical(through_the_wire(answer), answer)


def _payload(base=(1.0, 2.0), changes=([[0], [3.0]],)):
    return {"base": list(base), "changes": [list(c) for c in changes]}


#: One malformed ``values`` payload per way of being malformed.
MALFORMED_VALUES = {
    "not an object": 7,
    "legacy rows of text": [["abc"]],
    "legacy rows of null": [[None]],
    "legacy flat list": [5],
    "legacy nested rows": [[[1]]],
    "missing base": {"changes": []},
    "missing changes": {"base": [1.0]},
    "base not a list": {"base": "inf", "changes": []},
    "changes not a list": {"base": [1.0], "changes": {}},
    "change not a pair": _payload(changes=([[0], [3.0], []],)),
    "change not a list": _payload(changes=("ab",)),
    "indices not a list": _payload(changes=([0, [3.0]],)),
    "values not a list": _payload(changes=([[0], 3.0],)),
    "float index": _payload(changes=([[0.0], [3.0]],)),
    "boolean index": _payload(changes=([[True], [3.0]],)),
    "negative index": _payload(changes=([[-1], [3.0]],)),
    "index past the base": _payload(changes=([[2], [3.0]],)),
    "huge index": _payload(changes=([[10**30], [3.0]],)),
    "more indices than values": _payload(changes=([[0, 1], [3.0]],)),
    "more values than indices": _payload(changes=([[0], [3.0, 4.0]],)),
    "text cell": _payload(base=(1.0, "abc")),
    "numeric text cell": _payload(base=(1.0, "2.0")),
    "unknown infinity spelling": _payload(base=(1.0, "Infinity")),
    "bare non-finite number": _payload(base=(1.0, math.inf)),
    "null cell": _payload(base=(1.0, None)),
    "null changed cell": _payload(changes=([[0], [None]],)),
    "boolean cell": _payload(base=(1.0, True)),
    "nested cell": _payload(base=(1.0, [2.0])),
    "object cell": _payload(base=(1.0, {})),
    "integer too large for a float": _payload(base=(1.0, 10**400)),
}

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["inf", "-inf", "nan"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["base", "changes", "x"]), children),
    max_leaves=12,
)
#: Payloads of the right outer shape, so the fuzz reaches the row and
#: index checks instead of dying at "not an object".
_shaped = st.fixed_dictionaries({
    "base": st.lists(_json, max_size=4),
    "changes": st.lists(st.lists(st.lists(_json, max_size=3), max_size=3),
                        max_size=3),
})


class TestMalformedValues:
    """A bad ``values`` payload is a :class:`ProtocolError`, whatever its
    shape — never a ``ValueError``/``TypeError``, never silently NaN."""

    @pytest.mark.parametrize("payload", MALFORMED_VALUES.values(),
                             ids=MALFORMED_VALUES.keys())
    def test_refused_with_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            ServiceClient.decode_values(payload)

    @given(st.binary(max_size=64))
    def test_fuzz_decode_line(self, line):
        try:
            assert isinstance(protocol.decode_line(line), dict)
        except ProtocolError:
            pass

    @given(_json | _shaped)
    def test_fuzz_decode_values(self, payload):
        try:
            decoded = protocol.decode_values(payload)
        except ProtocolError:
            return
        assert decoded and all(row.dtype == np.float64 and row.ndim == 1
                               for row in decoded)


_plain_fields = st.dictionaries(
    st.text(max_size=3).filter(lambda key: key != "values"),
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    max_size=3,
)


@pytest.mark.service
class TestEncodedFields:
    """``values`` stored as :class:`protocol.Encoded` bytes (a result-cache
    entry's) frame exactly like the dict they were made of."""

    @given(value_matrices(), _plain_fields, _plain_fields)
    def test_spliced_frame_is_byte_identical(self, vectors, before, after):
        values = protocol.encode_values(vectors)
        spliced = {**before, "values": protocol.Encoded.of(values), **after}
        assert protocol.encode_line(spliced) == protocol.encode_line(
            {**before, "values": values, **after})

    @given(_plain_fields)
    def test_frame_without_encoded_fields_is_the_plain_dump(self, message):
        assert protocol.encode_line(message) == json.dumps(
            message, separators=(",", ":")).encode("utf-8") + b"\n"


def _own_methods(cls, *prefixes):
    """``cls``'s methods with a dispatch prefix, less the line transport's
    (``LineServer._handle_line`` is framing, not an op)."""
    return {name for name in set(dir(cls)) - set(dir(LineServer))
            if name.startswith(prefixes)}


def _cli_options(parser):
    """Every option string of ``parser`` and its nested subcommands."""
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                options |= _cli_options(child)
    return options


class TestOpTable:
    """``protocol.OPS`` is the one declaration: the server, the router,
    the client and the CLI all follow it, and the docs render it."""

    def test_server_handles_exactly_the_declared_ops(self):
        assert _own_methods(GraphService, "_handle_") == {
            f"_handle_{op}" for op in protocol.OPS
        }

    def test_router_routes_exactly_the_declared_ops(self):
        # The router dispatches by name: `_local_<op>` for the ops it
        # answers itself, else the method of the op's routing policy.
        assert _own_methods(FleetRouter, "_local_", "_route_") == {
            f"_local_{op}" if spec.routing == "local"
            else "_route_" + spec.routing.replace("-", "_")
            for op, spec in protocol.OPS.items()
        }

    def test_every_op_is_a_client_method(self):
        for op in protocol.OPS:
            assert callable(getattr(ServiceClient, op, None)), op

    def test_every_op_is_reachable_from_the_cli(self):
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        for op in protocol.OPS:
            command = "info" if op == "status" else op  # info --connect
            assert command in commands, op
            assert "--connect" in _cli_options(commands[command]), op

    @staticmethod
    def documented_rows():
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parents[2] / "docs"
                / "service.md").read_text(encoding="utf-8")
        rows = {}
        for line in text.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 5 and re.fullmatch(r"`\w+`", cells[0]):
                rows[cells[0].strip("`")] = cells[1:]
        return rows

    def test_docs_table_rows_equal_the_protocol_table(self):
        rows = self.documented_rows()
        assert list(rows) == list(protocol.OPS)
        for op, spec in protocol.OPS.items():
            fields, timeout, lane, routing = rows[op]
            documented = set() if fields == "—" else {
                name.strip(" `") for name in fields.split(",")
            }
            assert documented == set(spec.fields), op
            yes_no = {True: "yes", False: "no"}
            assert timeout == yes_no[spec.timeout], op
            assert lane == (spec.lane or "—"), op
            assert routing == spec.routing, op

    def test_unknown_and_unhashable_ops_are_refused(self):
        for op in ("snapshot", None, 7, ["query"], {"op": "query"}):
            with pytest.raises(ProtocolError, match="unknown op"):
                protocol.validate_request({"op": op})

    def test_ops_without_fields_ignore_extras(self):
        doc = {"op": "ping", "note": "hello"}
        assert protocol.validate_request(doc) is doc
