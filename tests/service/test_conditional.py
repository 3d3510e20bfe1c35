"""Conditional queries: a client that holds an answer is not sent it again.

A ``query`` may carry ``if_none_match`` (the ``values_tag`` the client
holds for that query key, or ``""``).  A result-cache hit answering it
carries its entry's ``values_tag`` — a content hash of the entry's
compact form — and omits ``values`` when the request holds that tag.  A
miss and a live-tip-patched answer carry no tag and ship values.
``ServiceClient.query`` sends the tag it holds and answers a values-less
reply from its held compact form; every answer here is compared with the
naive oracle.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.core.results import compact_range, expand_range, narrowed
from repro.errors import ProtocolError
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet, decode_edges
from repro.service import (
    ServiceClient,
    ServiceRunner,
    ServiceState,
    protocol,
)
from repro.service import client as client_module

from tests.conftest import assert_values_equal, oracle_values, state_oracle
from tests.service.conftest import (
    answer_entries,
    seeded_answer,
    valid_batch,
    wait_until,
)
from tests.service.test_wire_cache import RawClient

pytestmark = pytest.mark.service

STALE = "0" * 32


class Versions:
    """``snapshot_edges`` over a model: durable versions plus the live
    tip (durable tip +- pending live-tip updates)."""

    def __init__(self, store):
        evolving = store.load()
        self.num_vertices = evolving.num_vertices
        self.durable = [
            set(zip(*(a.tolist() for a in decode_edges(
                evolving.snapshot_edges(i).codes))))
            for i in range(evolving.num_snapshots)
        ]
        self.live = set(self.durable[-1])

    def snapshot_edges(self, version):
        pairs = (self.live if version == len(self.durable) - 1
                 else self.durable[version])
        return EdgeSet.from_pairs(sorted(pairs))

    def expected(self, reply, algorithm, source, weight_fn):
        return oracle_values(self, get_algorithm(algorithm), source,
                             reply["first"], reply["last"], weight_fn)


def assert_oracle(reply, want, context):
    assert len(reply["values"]) == len(want), context
    for got, expected in zip(reply["values"], want):
        assert_values_equal(got, expected, context)


@pytest.fixture
def runner(service_state):
    with ServiceRunner(service_state) as running:
        yield running


def raw_query(raw, **request):
    return protocol.decode_line(raw.frame(**request))


class TestValidation:
    @pytest.mark.parametrize("tag", ["", "0123456789abcdef" * 2])
    def test_empty_or_a_tag_is_accepted(self, tag):
        doc = {"op": "query", "algorithm": "BFS", "source": 0,
               "if_none_match": tag}
        assert protocol.validate_request(doc) is doc

    @pytest.mark.parametrize("tag", [
        None, 7, ["abc"], "abc", "0123456789ABCDEF" * 2,
        "0123456789abcdef" * 2 + "0", " " + "0" * 31,
    ])
    def test_anything_else_is_refused(self, tag):
        with pytest.raises(ProtocolError, match="if_none_match"):
            protocol.validate_request({"op": "query", "algorithm": "BFS",
                                       "source": 0, "if_none_match": tag})

    def test_only_a_query_takes_the_field(self):
        with pytest.raises(ProtocolError, match="unknown temporal fields"):
            protocol.validate_request({
                "op": "temporal", "algorithm": "BFS", "source": 0,
                "queries": [{"mode": "point", "as_of": 0}],
                "if_none_match": "",
            })

    def test_the_server_refuses_a_malformed_tag(self, runner):
        raw = RawClient(runner.port)
        try:
            reply = raw_query(raw, algorithm="BFS", source=0,
                              if_none_match="nope")
        finally:
            raw.close()
        assert reply["ok"] is False
        assert reply["error_type"] == "ProtocolError"


class TestValuesTag:
    def test_equal_content_equal_tag_whatever_the_origin(self):
        rows = seeded_answer(snapshots=4, vertices=256, changed=10)
        copies = [row.copy() for row in rows]
        assert (protocol.values_tag(compact_range(rows))
                == protocol.values_tag(compact_range(copies)))
        tag = protocol.values_tag(compact_range(rows))
        assert len(tag) == 32 and int(tag, 16) >= 0

    def test_any_changed_bit_changes_the_tag(self):
        rows = seeded_answer(snapshots=4, vertices=256, changed=10)
        tag = protocol.values_tag(compact_range(rows))
        for snapshot, cell, value in ((0, 3, 1e9), (3, 200, 0.5),
                                      (2, 0, -0.0)):
            moved = [row.copy() for row in rows]
            moved[snapshot][cell] = value
            assert protocol.values_tag(compact_range(moved)) != tag
        assert protocol.values_tag(compact_range(rows[:3])) != tag

    def test_the_tag_reads_values_not_their_dtype(self):
        # The tag hashes float64 bits, so a narrowed copy agrees.
        wide = compact_range([np.array([0.0, 1.0, np.inf, 3.0])])
        narrow = narrowed(wide)
        assert narrow[0].dtype == np.float16
        assert protocol.values_tag(narrow) == protocol.values_tag(wide)


class TestReplies:
    def test_a_hit_is_tagged_and_a_held_tag_drops_the_values(
        self, service_state, runner
    ):
        raw = RawClient(runner.port)
        try:
            plain = [raw.frame(algorithm="SSSP", source=0) for _ in range(2)]
            miss = raw_query(raw, algorithm="SSSP", source=1,
                             if_none_match="")
            hit = raw_query(raw, algorithm="SSSP", source=1,
                            if_none_match="")
            held = raw_query(raw, algorithm="SSSP", source=1,
                             if_none_match=hit["values_tag"])
            stale = raw_query(raw, algorithm="SSSP", source=1,
                              if_none_match=STALE)
        finally:
            raw.close()
        for frame in plain:
            assert b"values_tag" not in frame
        assert miss["from_cache"] is False and "values_tag" not in miss
        assert hit["from_cache"] is True and "values" in hit
        assert held["values_tag"] == stale["values_tag"] == hit["values_tag"]
        assert "values" not in held and "values" in stale
        want = state_oracle(service_state, "SSSP", 1)
        for reply in (miss, hit, stale):
            for got, expected in zip(protocol.decode_values(reply["values"]),
                                     want):
                assert_values_equal(got, expected, "tagged reply")

    def test_the_tag_is_hashed_once_per_entry(self, service_state, runner,
                                              monkeypatch):
        calls = []
        original = protocol.values_tag

        def counted(compact):
            calls.append(1)
            return original(compact)

        monkeypatch.setattr(protocol, "values_tag", counted)
        with ServiceClient(port=runner.port) as client:
            for _ in range(5):
                client.query("BFS", 2)
        assert len(calls) == 1
        ((_, entry),) = answer_entries(service_state.result_cache)
        assert entry.tag == original(entry.compact)

    def test_a_patched_tip_is_untagged_even_for_the_held_tag(
        self, service_state, runner
    ):
        with ServiceClient(port=runner.port) as client:
            client.query("BFS", 0)
            tagged = client.query("BFS", 0)
        tag = tagged["values_tag"]
        model = Versions(service_state.store)
        (u, v), = zip(*valid_batch(service_state.store, n_add=1,
                                   n_del=0).additions.arrays())
        service_state.update("insert", int(u), int(v))
        model.live.add((int(u), int(v)))
        raw = RawClient(runner.port)
        try:
            reply = raw_query(raw, algorithm="BFS", source=0,
                              if_none_match=tag)
        finally:
            raw.close()
        assert reply["from_cache"] is True and reply["livetip_seq"] == 1
        assert "values_tag" not in reply
        reply["values"] = protocol.decode_values(reply["values"])
        assert_oracle(reply, model.expected(reply, "BFS", 0,
                                            service_state.weight_fn),
                      "patched tip")


class TestCoalescing:
    def test_identical_queries_coalesce_per_tag(self, service_state,
                                                runner, monkeypatch):
        """Two requests each holding the current tag, a stale tag (from
        before an ingest) and no field, all in flight at once: one
        execution per tag, and only the current tag's pair gets the
        values-less reply."""
        with ServiceClient(port=runner.port) as client:
            client.query("SSSP", 0)
            stale = client.query("SSSP", 0)["values_tag"]
            service_state.ingest(valid_batch(service_state.store))
            client.query("SSSP", 0)
            current = client.query("SSSP", 0)
        assert current["values_tag"] != stale
        held = current["values"]
        before = runner.service.counters["coalesced"]
        tags = [current["values_tag"], stale, None] * 2
        replies = [None] * len(tags)

        def issue(index):
            request = {"algorithm": "SSSP", "source": 0}
            if tags[index] is not None:
                request["if_none_match"] = tags[index]
            raw = RawClient(runner.port)
            try:
                replies[index] = raw_query(raw, **request)
            finally:
                raw.close()

        threads = [threading.Thread(target=issue, args=(index,))
                   for index in range(len(tags))]
        # Each leader is a hit, answered in one loop turn unless a fault
        # plan is active: with one, the leaders take the executor hop
        # and wait there until their followers have piled up.
        release = threading.Event()
        query = service_state.query

        def parked(*args, **kwargs):
            assert release.wait(timeout=30)
            return query(*args, **kwargs)

        monkeypatch.setattr(service_state, "query", parked)
        with faults.FaultPlan().active():
            for thread in threads:
                thread.start()
            try:
                wait_until(lambda: (
                    runner.service.counters["coalesced"] - before >= 3))
            finally:
                release.set()
                for thread in threads:
                    thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert runner.service.counters["coalesced"] - before == 3
        assert sum(bool(reply.get("coalesced")) for reply in replies) == 3
        want = Versions(service_state.store).expected(
            replies[0], "SSSP", 0, service_state.weight_fn)
        for tag, reply in zip(tags, replies):
            assert reply["ok"] and reply["from_cache"] is True
            if tag == current["values_tag"]:
                assert "values" not in reply
                assert reply["values_tag"] == tag
                reply["values"] = held
            else:
                assert "values" in reply
                assert ("values_tag" in reply) == (tag is not None)
                reply["values"] = protocol.decode_values(reply["values"])
            assert_oracle(reply, want, f"coalesced, tag {tag!r}")


class TestClient:
    def test_a_held_answer_is_not_shipped_again(self, service_state, runner,
                                                monkeypatch):
        decoded = []
        original = ServiceClient.decode_values

        def counted(encoded):
            decoded.append(1)
            return original(encoded)

        monkeypatch.setattr(ServiceClient, "decode_values",
                            staticmethod(counted))
        want = Versions(service_state.store)
        with ServiceClient(port=runner.port) as client:
            replies = [client.query("SSSP", 2, 1, 3) for _ in range(4)]
            assert len(client._held) == 1
            (tag, compact), = client._held.values()
        assert [("values_tag" in r, r["from_cache"]) for r in replies] == [
            (False, False), (True, True), (True, True), (True, True)]
        assert len(decoded) == 2  # the miss and the first tagged hit
        assert tag == replies[1]["values_tag"] == protocol.values_tag(compact)
        for reply in replies:
            assert_oracle(reply, want.expected(reply, "SSSP", 2,
                                               service_state.weight_fn),
                          "client answer")
        # Fresh rows every time: the caller may write into them.
        replies[2]["values"][0][:] = -1.0
        assert not np.array_equal(replies[3]["values"][0],
                                  replies[2]["values"][0])

    def test_the_held_answers_are_bounded(self, service_state, runner,
                                          monkeypatch):
        monkeypatch.setattr(client_module, "HELD_ANSWERS", 3)
        with ServiceClient(port=runner.port) as client:
            for source in range(5):
                for _ in range(2):
                    client.query("BFS", source)
            assert [key[1] for key in client._held] == [2, 3, 4]
            # Re-reading a held key makes it the most recent one.
            client.query("BFS", 2)
            client.query("BFS", 0)
            client.query("BFS", 0)
            assert [key[1] for key in client._held] == [4, 2, 0]

    def test_a_values_less_reply_for_a_tag_not_held_is_refused(
        self, monkeypatch
    ):
        client = ServiceClient(port=1)
        monkeypatch.setattr(
            client, "_request_retrying_overload",
            lambda doc: {"ok": True, "op": "query", "values_tag": STALE})
        with pytest.raises(ProtocolError, match="does not hold"):
            client.query("BFS", 0)

    def test_held_answers_are_compact_and_narrowed(self, service_state,
                                                  runner):
        with ServiceClient(port=runner.port) as client:
            for algorithm in ("BFS", "Viterbi"):
                for _ in range(2):
                    client.query(algorithm, 0)
            held = {key[0]: compact for key, (_, compact)
                    in client._held.items()}
        assert held["bfs"][0].dtype == np.float16  # integer levels, inf
        assert held["viterbi"][0].dtype == np.float64
        rows = seeded_answer()
        compact = narrowed(compact_range(rows))
        nbytes = compact[0].nbytes + sum(i.nbytes + c.nbytes
                                         for i, c in compact[1])
        assert nbytes * 16 <= sum(row.nbytes for row in rows)
        for got, want in zip(expand_range(compact), rows):
            assert_values_equal(got, want, "held answer")


# -- any interleaving, read by a tag-holding client ---------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(algorithm_names()),
                  st.integers(0, 1), st.sampled_from(["window", "tip",
                                                      "first"]),
                  st.integers(1, 3)),
        st.tuples(st.just("update"), st.sampled_from(["insert", "delete"]),
                  st.integers(0, 10_000)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("ingest"), st.integers(0, 10_000)),
        st.tuples(st.just("slide"), st.integers(0, 10_000)),
    ),
    min_size=4, max_size=24,
)


@pytest.mark.livetip
@example(ops=[("query", "BFS", 0, "window", 2), ("ingest", 0),
              ("query", "BFS", 0, "window", 3)])
@example(ops=[("query", "SSSP", 1, "tip", 2), ("update", "insert", 5),
              ("query", "SSSP", 1, "tip", 2), ("compact",),
              ("query", "SSSP", 1, "first", 3)])
@example(ops=[("query", "Viterbi", 0, "window", 1), ("ingest", 3),
              ("slide", 0), ("ingest", 9), ("slide", 1),
              ("query", "Viterbi", 0, "window", 1),
              ("query", "SSWP", 0, "first", 1)])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_any_interleaving_reads_the_oracle(service_evolving, service_weights,
                                           ops):
    """Repeated queries beside updates, folds, ingests and window slides
    (window 3; a ``slide`` ingest re-adds edges deleted earlier, which
    rejoin the common graph as the window moves on): every answer the
    tag-holding client returns — values-less or not, its walk started
    from a derived, kept or fresh root — is bit-identical to the
    oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore.create(Path(tmp) / "store", service_evolving)
        state = ServiceState(store, weight_fn=service_weights, window=3,
                             livetip_max_updates=4)
        model = Versions(store)
        everything = {(u, v) for u in range(model.num_vertices)
                      for v in range(model.num_vertices) if u != v}
        touched = set()
        deleted = []  # edges an ingest deleted, in order
        try:
            with ServiceRunner(state) as runner, \
                    ServiceClient(port=runner.port) as client:
                for op in ops:
                    if op[0] == "query":
                        _, algorithm, source, span, repeats = op
                        tip = len(model.durable) - 1
                        first, last = {"window": (None, None),
                                       "tip": (tip, tip),
                                       "first": (max(0, tip - 2), tip - 1)
                                       }[span]
                        for _ in range(repeats):
                            reply = client.query(algorithm, source, first,
                                                 last)
                            assert_oracle(reply, model.expected(
                                reply, algorithm, source, service_weights),
                                f"{op} after {len(model.durable)} versions")
                    elif op[0] == "update":
                        _, kind, pick = op
                        pool = sorted((model.live if kind == "delete"
                                       else everything - model.live)
                                      - touched)
                        u, v = pool[pick % len(pool)]
                        receipt = client.update(kind, u, v)
                        touched.add((u, v))
                        (model.live.add if kind == "insert"
                         else model.live.discard)((u, v))
                        if receipt["compacted"]:
                            model.durable.append(set(model.live))
                            touched.clear()
                    elif op[0] == "compact":
                        if client.update("compact")["compacted"]:
                            model.durable.append(set(model.live))
                            touched.clear()
                    else:
                        if touched:  # an ingest folds pending updates first
                            model.durable.append(set(model.live))
                            touched.clear()
                        absent = sorted(everything - model.live)
                        present = sorted(model.live)
                        back = [edge for edge in deleted
                                if edge not in model.live]
                        if op[0] == "slide" and back:
                            adds, dels = {back[op[1] % len(back)]}, set()
                        else:
                            adds = {absent[(op[1] + 7 * i) % len(absent)]
                                    for i in range(2)}
                            dels = {present[op[1] % len(present)]}
                            deleted.extend(dels)
                        receipt = client.ingest(
                            additions=[list(p) for p in sorted(adds)],
                            deletions=[list(p) for p in sorted(dels)])
                        model.live = (model.live | adds) - dels
                        model.durable.append(set(model.live))
                        assert receipt["version"] == len(model.durable) - 1
        finally:
            state.close()
