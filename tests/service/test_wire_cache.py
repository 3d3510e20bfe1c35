"""A result-cache entry ships its reply bytes: encoded once, on first reuse.

An answer served unpatched from the result cache carries its
:class:`~repro.service.cache.CachedRange`; the server splices the
entry's stored ``values`` bytes into the frame, filling the slot on the
entry's first reuse.  Every other answer — a miss or a live-tip-patched
one — is encoded for its own reply.  Either way the
frame is byte-identical to encoding the dict form.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro import faults
from repro.algorithms.registry import algorithm_names
from repro.service import ServiceRunner, ServiceState, protocol
from repro.service import cache as cache_module
from repro.service import state as state_module

from tests.conftest import assert_values_equal, state_oracle
from tests.service.conftest import answer_entries, valid_batch, wait_until
from tests.service.golden import Gate

pytestmark = pytest.mark.service


class RawClient:
    """One connection that sends query frames and returns raw reply bytes."""

    def __init__(self, port):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._file = self._sock.makefile("rwb")

    def frame(self, **request):
        self._file.write(protocol.encode_line({"op": "query", **request}))
        self._file.flush()
        return self._file.readline()

    def close(self):
        self._file.close()
        self._sock.close()


@pytest.fixture
def runner(service_state):
    with ServiceRunner(service_state) as running:
        yield running


@pytest.fixture
def raw(runner):
    client = RawClient(runner.port)
    yield client
    client.close()


def dict_form(frame, rows):
    """``encode_line`` of ``frame``'s message with ``values`` encoded from
    ``rows``: what the frame must equal byte for byte."""
    message = protocol.decode_line(frame)
    message["values"] = protocol.encode_values(rows)
    return protocol.encode_line(message)


def entry_of(state, algorithm, source):
    """The result-cache entry of a full-window query."""
    (entry,) = [entry for key, entry in state.result_cache.items()
                if key[:4] == (algorithm, source, state.published.base,
                               state.latest_version)]
    return entry


class TestStoredBytes:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_hit_frames_equal_the_dict_form(self, service_state, raw,
                                            algorithm):
        want = state_oracle(service_state, algorithm, 1)
        miss, first_reuse, later = (raw.frame(algorithm=algorithm, source=1)
                                    for _ in range(3))
        for frame in (miss, first_reuse, later):
            assert frame == dict_form(frame, want)
        assert first_reuse == later
        assert protocol.decode_line(later)["from_cache"] is True
        assert entry_of(service_state, algorithm, 1).wire is not None

    def test_non_finite_and_signed_zero_cells(self, service_state, raw):
        # Whatever rows an entry holds ship exactly as encode_values
        # spells them.
        odd = [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324] * 11),
               np.array([-0.0, 0.0, -np.inf, np.nan, np.inf, 1e308] * 11)]
        key = ("SSSP", 0, 0, service_state.latest_version,
               service_state.published.epoch)
        service_state.result_cache.put(key, cache_module.CachedRange(odd))
        frames = [raw.frame(algorithm="SSSP", source=0) for _ in range(2)]
        for frame in frames:
            assert frame == dict_form(frame, odd)
        assert b'"-inf"' in frames[1] and b'"nan"' in frames[1]
        assert b"-0.0" in frames[1]

    def test_a_reused_entry_is_neither_expanded_nor_encoded_again(
        self, service_state, raw, monkeypatch
    ):
        calls = dict.fromkeys(
            ("expand_range", "compact_range", "encode_float_row"), 0)

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module, name in ((cache_module, "expand_range"),
                             (cache_module, "compact_range"),
                             (protocol, "compact_range"),
                             (protocol, "encode_float_row")):
            count(module, name)
        raw.frame(algorithm="BFS", source=0)  # miss: the put compacts
        calls.update(dict.fromkeys(calls, 0))
        raw.frame(algorithm="BFS", source=0)  # first reuse fills the slot
        assert calls == {"expand_range": 0, "compact_range": 0,
                         "encode_float_row": 5}
        calls.update(dict.fromkeys(calls, 0))
        frame = raw.frame(algorithm="BFS", source=0)
        assert calls == dict.fromkeys(calls, 0)
        assert frame == dict_form(frame, state_oracle(service_state, "BFS", 0))

    @pytest.mark.parametrize("algorithm", ["BFS", "SSSP"])
    def test_a_miss_compacts_its_rows_once(self, service_state, raw,
                                           monkeypatch, algorithm):
        """The planner compacts a miss's rows for its entry; the reply
        encodes that compact form instead of compacting them again."""
        calls = []
        for module in (cache_module, protocol):
            def counted(values, original=module.compact_range):
                calls.append(len(values))
                return original(values)
            monkeypatch.setattr(module, "compact_range", counted)
        frame = raw.frame(algorithm=algorithm, source=2)
        assert calls == [service_state.latest_version + 1]
        monkeypatch.undo()
        assert frame == dict_form(frame,
                                  state_oracle(service_state, algorithm, 2))

    def test_a_miss_stores_no_bytes(self, service_state, raw):
        raw.frame(algorithm="SSSP", source=2)
        assert entry_of(service_state, "SSSP", 2).wire is None


class TestQueryAnswer:
    def test_values_is_a_constructor_argument_and_entry_is_not(self):
        rows = [np.zeros(3), np.ones(3)]
        answer = state_module.QueryAnswer("BFS", 0, 0, 1, 0, rows)
        assert answer.values is rows and answer.entry is None
        with pytest.raises(TypeError):
            state_module.QueryAnswer("BFS", 0, 0, 1, 0,
                                     entry=cache_module.CachedRange(rows))


class TestAnswersThatEncodeFresh:
    def test_patched_tip_never_reads_or_fills_the_slot(self, service_state,
                                                       raw):
        raw.frame(algorithm="SSSP", source=0)  # entry, slot empty
        raw.frame(algorithm="BFS", source=0)
        raw.frame(algorithm="BFS", source=0)  # entry, slot filled
        empty = entry_of(service_state, "SSSP", 0)
        filled = entry_of(service_state, "BFS", 0)
        stored = filled.wire
        (u, v), = zip(*valid_batch(service_state.store, n_add=1,
                                   n_del=0).additions.arrays())
        service_state.update("insert", int(u), int(v))
        for algorithm in ("SSSP", "BFS"):
            patched = state_oracle(service_state, algorithm, 0)
            for _ in range(2):
                frame = raw.frame(algorithm=algorithm, source=0)
                message = protocol.decode_line(frame)
                assert message["from_cache"] is True
                assert message["livetip_seq"] == 1
                assert frame == dict_form(frame, patched)
        assert empty.wire is None
        assert filled.wire is stored
        # The fold is a new epoch: its TG tip is the patched one, and its
        # entry's first reuse stores the new epoch's bytes.
        folded = service_state.update("compact")
        assert folded["compacted"] and folded["epoch"] == 1
        want = state_oracle(service_state, "BFS", 0)
        assert_values_equal(want[-1], patched[-1], "folded tip")
        frames = [raw.frame(algorithm="BFS", source=0) for _ in range(3)]
        assert [protocol.decode_line(f)["from_cache"] for f in frames] == [
            False, True, True]
        for frame in frames:
            assert frame == dict_form(frame, want)
            assert "livetip_seq" not in protocol.decode_line(frame)
        assert entry_of(service_state, "BFS", 0).wire is not stored


class TestEntryLifetime:
    def test_lru_eviction_drops_the_bytes_with_the_entry(
        self, service_store, service_weights
    ):
        state = ServiceState(service_store, weight_fn=service_weights,
                             result_cache_entries=1)
        try:
            with ServiceRunner(state) as runner:
                client = RawClient(runner.port)
                try:
                    client.frame(algorithm="BFS", source=0)
                    client.frame(algorithm="BFS", source=0)
                    evicted = entry_of(state, "BFS", 0)
                    assert evicted.wire is not None
                    client.frame(algorithm="BFS", source=1)  # evicts it
                    # With one slot, each answer also evicts its root.
                    assert state.result_cache.stats.evictions == 3
                    assert evicted not in state.result_cache._entries.values()
                    again = protocol.decode_line(
                        client.frame(algorithm="BFS", source=0))
                finally:
                    client.close()
            assert again["from_cache"] is False
            assert entry_of(state, "BFS", 0).wire is None
        finally:
            state.close()

    def test_epoch_purge_drops_the_bytes_with_the_entry(self, service_state,
                                                        raw):
        raw.frame(algorithm="SSSP", source=0)
        raw.frame(algorithm="SSSP", source=0)
        purged = entry_of(service_state, "SSSP", 0)
        assert purged.wire is not None
        service_state.ingest(valid_batch(service_state.store))
        assert answer_entries(service_state.result_cache) == []
        frame = raw.frame(algorithm="SSSP", source=0)
        assert protocol.decode_line(frame)["from_cache"] is False
        fresh = entry_of(service_state, "SSSP", 0)
        assert fresh is not purged and fresh.wire is None


class TestCoalescing:
    def test_a_follower_gets_the_leaders_frame(self, service_state):
        with ServiceRunner(service_state) as runner:
            warm = RawClient(runner.port)
            try:
                warm.frame(algorithm="SSSP", source=0)
                warm.frame(algorithm="SSSP", source=0)  # slot filled
            finally:
                warm.close()
            frames = []

            def issue():
                client = RawClient(runner.port)
                try:
                    frames.append(client.frame(algorithm="SSSP", source=0))
                finally:
                    client.close()

            threads = [threading.Thread(target=issue) for _ in range(4)]
            # The leader is a hit, answered in one loop turn unless a
            # fault plan is active: with one, it takes the executor hop,
            # where the gate holds it while followers pile up.
            gate = Gate(service_state)
            with faults.FaultPlan().active():
                for thread in threads:
                    thread.start()
                try:
                    assert gate.entered.wait(timeout=30)
                    wait_until(
                        lambda: runner.service.counters["coalesced"] >= 3)
                finally:
                    gate.release()
                    for thread in threads:
                        thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            coalesced = runner.service.counters["coalesced"]
        assert len(frames) == 4 and coalesced == 3
        (leader,) = [f for f in frames if b'"coalesced"' not in f]
        assert json.loads(leader)["from_cache"] is True
        for frame in frames:
            if frame is not leader:
                assert frame == leader[:-2] + b',"coalesced":true}\n'
