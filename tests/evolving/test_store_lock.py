"""Multi-handle append safety and change notifications for the store.

The query service keeps a long-lived handle open while other processes
(or other handles in this process) may append; the advisory file lock
plus the stale-handle refresh must keep every handle consistent.
"""

from __future__ import annotations

import pytest

from repro.evolving.delta import DeltaBatch
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet
from repro.graph.generators import rmat_edges


@pytest.fixture
def store_path(tmp_path):
    evolving = generate_evolving_graph(
        num_vertices=64,
        base=rmat_edges(scale=6, num_edges=200, seed=2),
        num_snapshots=3,
        batch_size=12,
        seed=4,
        name="locks",
    )
    path = tmp_path / "store"
    SnapshotStore.create(path, evolving)
    return path


def fresh_batch(store, index):
    """A valid single-edge batch absent from the store's *on-disk* tip.

    Reads through a fresh handle so a deliberately stale ``store``
    argument cannot produce a duplicate addition.
    """
    current = SnapshotStore(store.directory)
    tip = current.load().snapshot_edges(current.num_snapshots - 1)
    n = current.num_vertices
    for u in range(n):
        for v in range(n):
            if u != v and EdgeSet.from_pairs([(u, v)]) - tip:
                return DeltaBatch(
                    additions=EdgeSet.from_pairs([(u, v)]),
                    deletions=EdgeSet.empty(),
                )
    raise AssertionError("graph is complete")  # pragma: no cover


class TestTwoHandles:
    def test_interleaved_appends_do_not_clobber(self, store_path):
        """Two handles to one directory alternate appends; each sees the
        other's batches, nothing is lost, and the store verifies."""
        first = SnapshotStore(store_path)
        second = SnapshotStore(store_path)
        assert first.append(fresh_batch(first, 0)) == 2
        # ``second`` was opened before that append: its in-memory state
        # is stale, so the refresh under the lock must resynchronise it
        # rather than overwrite batch 2.
        assert second.append(fresh_batch(second, 1)) == 3
        assert first.append(fresh_batch(first, 2)) == 4
        assert first.num_batches == 5
        # ``second`` refreshed during its own append; reads stay
        # lock-free, so it only reflects what it saw then.
        assert second.num_batches == 4
        assert SnapshotStore(store_path).num_batches == 5
        report = SnapshotStore(store_path).verify(deep=True)
        assert report.ok, report

    def test_lock_file_is_created(self, store_path):
        store = SnapshotStore(store_path)
        store.append(fresh_batch(store, 0))
        assert (store_path / "store.lock").exists()

    def test_stale_handle_serves_fresh_reads_after_append(self, store_path):
        first = SnapshotStore(store_path)
        second = SnapshotStore(store_path)
        batch = fresh_batch(first, 0)
        first.append(batch)
        # A read-only stale handle still reports the old shape until it
        # appends (reads are lock-free by design)...
        assert second.num_batches == 2
        # ...but its next append resynchronises and lands on top.
        second.append(fresh_batch(second, 1))
        assert second.num_batches == 4
        assert second.read_batch(2).additions == batch.additions
