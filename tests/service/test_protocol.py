"""Wire-protocol tests: framing, validation, value encoding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import protocol


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


class TestValueEncoding:
    def test_infinities_become_strings(self):
        encoded = protocol.encode_values(
            [np.array([1.5, np.inf, -np.inf])]
        )
        assert encoded == [[1.5, "inf", "-inf"]]

    def test_roundtrip_exact(self):
        vectors = [
            np.array([0.0, 1.0, np.inf]),
            np.array([0.1 + 0.2, -np.inf, 1e-300]),
        ]
        decoded = protocol.decode_values(protocol.encode_values(vectors))
        assert len(decoded) == len(vectors)
        for got, want in zip(decoded, vectors):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    @given(st.lists(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.just(math.inf), st.just(-math.inf),
            ),
            max_size=8,
        ),
        max_size=4,
    ))
    def test_roundtrip_property(self, rows):
        vectors = [np.asarray(row, dtype=np.float64) for row in rows]
        # Full trip through JSON framing, exactly as the server sends it.
        line = protocol.encode_line(
            {"values": protocol.encode_values(vectors)}
        )
        decoded = protocol.decode_values(protocol.decode_line(line)["values"])
        for got, want in zip(decoded, vectors):
            assert np.array_equal(got, want)


class TestOpTable:
    """``protocol.OPS`` is the one declaration; the docs render it."""

    @staticmethod
    def documented_rows():
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parents[2] / "docs"
                / "service.md").read_text(encoding="utf-8")
        rows = {}
        for line in text.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 8 and re.fullmatch(r"`\w+`", cells[0]):
                rows[cells[0].strip("`")] = cells[1:]
        return rows

    def test_docs_table_rows_equal_the_protocol_table(self):
        rows = self.documented_rows()
        assert list(rows) == list(protocol.OPS)
        for op, spec in protocol.OPS.items():
            fields, timeout, lane, breaker, retried, fallback, routing = \
                rows[op]
            documented = set() if fields == "—" else {
                name.strip(" `") for name in fields.split(",")
            }
            assert documented == set(spec.fields), op
            yes_no = {True: "yes", False: "no"}
            assert timeout == yes_no[spec.timeout], op
            assert lane == (spec.lane or "—"), op
            assert breaker == (spec.breaker or "—"), op
            assert retried == yes_no[spec.retried], op
            assert fallback == yes_no[spec.fallback], op
            assert routing == spec.routing, op

    def test_unknown_and_unhashable_ops_are_refused(self):
        for op in ("snapshot", None, 7, ["query"], {"op": "query"}):
            with pytest.raises(ProtocolError, match="unknown op"):
                protocol.validate_request({"op": op})

    def test_ops_without_fields_ignore_extras(self):
        doc = {"op": "ping", "note": "hello"}
        assert protocol.validate_request(doc) is doc

    def test_only_safe_ops_are_retried(self):
        # An update must never be retried server-side: a retried insert
        # whose first attempt landed would bounce off the overlay's
        # already-present validation.
        assert not protocol.OPS["update"].retried
        assert all(spec.retried for spec in protocol.OPS.values()
                   if spec.fallback)
