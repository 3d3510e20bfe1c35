"""The lock order of ``ServiceState``.

The state has three plain locks: ``_appending`` serialises the
appenders and is taken *before* ``_writer``, never while it is held;
``_stats_lock`` is a leaf, under which no other state lock is taken.
Each lock is swapped for one that records, per thread, which locks the
thread already held when it took it; the drive below walks every path
that takes them: a query miss, an ingest that slides the window, an
update whose fold is due, an explicit compact, and a resync after
another handle appended to the store.
"""

from __future__ import annotations

import threading

from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import decode_edges
from repro.graph.weights import HashWeights
from repro.service import ServiceState

from tests.service.conftest import valid_batch

LOCKS = ("_appending", "_writer", "_stats_lock")


class RecordingLock:
    """A lock that logs ``(locks its thread holds, its name)`` each time
    it is taken."""

    def __init__(self, name, held, log):
        self._lock = threading.Lock()
        self._name = name
        self._held = held
        self._log = log

    def acquire(self, *args, **kwargs):
        stack = self._held.__dict__.setdefault("stack", [])
        self._log.append((tuple(stack), self._name))
        taken = self._lock.acquire(*args, **kwargs)
        if taken:
            stack.append(self._name)
        return taken

    def release(self):
        self._held.stack.remove(self._name)
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


def _absent_edges(store, k):
    """``k`` edges absent from the store's tip."""
    sources, targets = decode_edges(
        valid_batch(SnapshotStore(store.directory), n_add=k, n_del=0)
        .additions.codes)
    return list(zip(sources.tolist(), targets.tolist()))


def _batch(store):
    """A batch valid against the store's tip, read through a new handle
    (another handle may have appended since ``store`` last looked)."""
    return valid_batch(SnapshotStore(store.directory))


def test_appending_is_never_taken_under_writer_and_stats_is_a_leaf(
        service_store):
    state = ServiceState(service_store, weight_fn=HashWeights(64), window=3,
                         livetip_max_updates=2)
    held, log = threading.local(), []
    for name in LOCKS:
        setattr(state, name, RecordingLock(name, held, log))
    base = state.published.base
    try:
        state.query("BFS", 0)
        state.ingest(_batch(service_store))  # slides the window
        assert state.published.base == base + 1
        for u, v in _absent_edges(service_store, 2):  # the second is due
            receipt = state.update("insert", u, v)
        assert receipt["compacted"]
        (u, v), = _absent_edges(service_store, 1)
        state.update("insert", u, v)
        assert state.compact_tip()["compacted"]

        SnapshotStore(service_store.directory).append(_batch(service_store))
        state.ingest(_batch(service_store))  # a gap: rebuilt from the store
        assert state.published.resyncs == 1
        (u, v), = _absent_edges(service_store, 1)
        state.update("insert", u, v)
        SnapshotStore(service_store.directory).append(_batch(service_store))
        state.compact_tip()  # follows the store before it folds
        assert state.published.resyncs == 2
        state.query("SSSP", 0)
    finally:
        state.close()
    assert {name for _, name in log} == set(LOCKS)
    edges = {(outer, name) for stack, name in log for outer in stack}
    assert ("_appending", "_writer") in edges  # the nested path ran
    assert ("_writer", "_appending") not in edges
    assert not any(outer == "_stats_lock" for outer, _ in edges)
