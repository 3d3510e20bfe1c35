"""Replay the seeded request-path transcript against the current code.

``golden_transcript.json`` was captured (``python -m tests.service.golden``)
before the request path was collapsed; everything a client can see on
the wire — per op, per outcome, direct and through the router — must
still be what it was then.  See ``tests/service/golden.py`` for the
scenarios and for how they stay deterministic.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tests.service import golden

pytestmark = [pytest.mark.service, pytest.mark.fleet]

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replay():
    return golden.record()


def test_the_transcript_covers_every_op_and_outcome():
    seen_ops, outcomes = set(), set()
    for entries in GOLDEN.values():
        for entry in entries:
            request = entry.get("request", {})
            response = entry.get("response", {})
            seen_ops.add(request.get("op"))
            if response.get("ok"):
                outcomes.add("ok")
            outcomes.add(response.get("error_type"))
            if response.get("coalesced"):
                outcomes.add("coalesced")
            if response.get("draining"):
                outcomes.add("draining")
    assert {"ping", "status", "query", "temporal", "ingest", "update",
            "shutdown"} <= seen_ops
    assert {"ok", "coalesced", "draining", "InjectedFault",
            "ProtocolError", "AlgorithmError", "ServiceOverloadedError",
            "CircuitOpenError", "DeadlineExceededError",
            "RetryExhaustedError", "FleetError"} <= outcomes


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_replay_is_unchanged(replay, scenario):
    want, got = GOLDEN[scenario], replay[scenario]
    for index, (expected, actual) in enumerate(zip(want, got)):
        assert actual == expected, (
            f"{scenario}[{index}] diverged for request "
            f"{expected.get('request')}"
        )
    assert len(got) == len(want)


def _value_payloads(doc):
    if isinstance(doc, dict):
        for key in sorted(doc):
            if key == "values":
                yield doc[key]
            else:
                yield from _value_payloads(doc[key])
    elif isinstance(doc, list):
        for item in doc:
            yield from _value_payloads(item)


def test_every_values_payload_is_the_wire_v2_capture():
    """The transcript was regenerated when the default schedule became
    range halving walked in sweeps; only ``node_hits`` / ``node_misses``
    may have moved.  The digest is that of every ``values`` payload
    (``base`` + ``changes``, temporal ones included) of the transcript as
    it stood before that regeneration: byte-equal answers.  When reads
    lost their retry and degraded lane, the 14 payloads of the replaced
    read-fault exchanges left the transcript; the 30 that remain are,
    in order, byte-equal to 30 of the 44 before."""
    digest = hashlib.sha256()
    count = 0
    for scenario in sorted(GOLDEN):
        for payload in _value_payloads(GOLDEN[scenario]):
            digest.update(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode())
            count += 1
    assert count == 30
    assert digest.hexdigest() == (
        "4212ebbc3afdb8f1028c2c00a6b7bda5c082e4e8162e19d31e059da534f44221")
