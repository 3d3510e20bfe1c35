"""Tests for repro.evolving.snapshots."""

import pytest
from hypothesis import given

from repro.errors import SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.edgeset import EdgeSet
from tests.strategies import evolving_graphs


def es(*pairs):
    return EdgeSet.from_pairs(list(pairs))


def simple_eg():
    base = es((0, 1), (1, 2))
    batches = [
        DeltaBatch(additions=es((2, 3)), deletions=es((0, 1))),
        DeltaBatch(additions=es((0, 1)), deletions=es((1, 2))),
    ]
    return EvolvingGraph(4, base, batches)


class TestSnapshots:
    def test_shape(self):
        eg = simple_eg()
        assert eg.num_snapshots == 3

    def test_snapshot_edges(self):
        eg = simple_eg()
        assert set(eg.snapshot_edges(0)) == {(0, 1), (1, 2)}
        assert set(eg.snapshot_edges(1)) == {(1, 2), (2, 3)}
        assert set(eg.snapshot_edges(2)) == {(0, 1), (2, 3)}

    def test_negative_index(self):
        eg = simple_eg()
        assert eg.snapshot_edges(-1) == eg.snapshot_edges(2)

    def test_out_of_range(self):
        eg = simple_eg()
        with pytest.raises(SnapshotError):
            eg.snapshot_edges(3)

    def test_caching_is_consistent(self):
        eg = simple_eg()
        later = eg.snapshot_edges(2)
        earlier = eg.snapshot_edges(1)
        assert set(earlier) == {(1, 2), (2, 3)}
        assert eg.snapshot_edges(2) == later

    def test_snapshot_csr(self):
        eg = simple_eg()
        csr = eg.snapshot_csr(1)
        assert csr.edge_set() == eg.snapshot_edges(1)
        assert csr.num_vertices == 4

    def test_all_snapshot_edges(self):
        eg = simple_eg()
        all_sets = eg.all_snapshot_edges()
        assert len(all_sets) == 3
        assert all_sets[0] == eg.snapshot_edges(0)

    def test_base_out_of_range_vertex(self):
        with pytest.raises(SnapshotError):
            EvolvingGraph(2, es((0, 5)))


class TestAppend:
    def test_append_batch(self):
        eg = simple_eg()
        eg.append_batch(DeltaBatch(additions=es((3, 0))))
        assert eg.num_snapshots == 4
        assert (3, 0) in eg.snapshot_edges(3)

    def test_append_invalid_batch_rejected(self):
        eg = simple_eg()
        with pytest.raises(Exception):
            eg.append_batch(DeltaBatch(deletions=es((3, 3))))
        assert eg.num_snapshots == 3  # state not poisoned

    def test_append_vertex_out_of_range(self):
        eg = simple_eg()
        with pytest.raises(SnapshotError):
            eg.append_batch(DeltaBatch(additions=es((0, 9))))


class TestPersistence:
    def test_npz_roundtrip(self, tmp_path):
        eg = simple_eg()
        eg.name = "demo"
        path = tmp_path / "eg.npz"
        eg.save_npz(path)
        loaded = EvolvingGraph.load_npz(path)
        assert loaded.name == "demo"
        assert loaded.num_vertices == eg.num_vertices
        assert loaded.num_snapshots == eg.num_snapshots
        for i in range(eg.num_snapshots):
            assert loaded.snapshot_edges(i) == eg.snapshot_edges(i)

    def test_npz_roundtrip_no_batches(self, tmp_path):
        eg = EvolvingGraph(3, es((0, 1)))
        path = tmp_path / "eg.npz"
        eg.save_npz(path)
        loaded = EvolvingGraph.load_npz(path)
        assert loaded.num_snapshots == 1
        assert loaded.snapshot_edges(0) == eg.snapshot_edges(0)


class TestCoarsened:
    def test_keeps_every_kth_snapshot(self):
        eg = simple_eg()
        coarse = eg.coarsened(2)
        assert coarse.num_snapshots == 2
        assert coarse.snapshot_edges(0) == eg.snapshot_edges(0)
        assert coarse.snapshot_edges(1) == eg.snapshot_edges(2)

    def test_factor_one_is_copy(self):
        eg = simple_eg()
        coarse = eg.coarsened(1)
        assert coarse.num_snapshots == eg.num_snapshots
        assert coarse is not eg

    def test_factor_larger_than_stream(self):
        eg = simple_eg()
        coarse = eg.coarsened(10)
        assert coarse.num_snapshots == 2
        assert coarse.snapshot_edges(-1) == eg.snapshot_edges(-1)

    def test_invalid_factor(self):
        with pytest.raises(SnapshotError):
            simple_eg().coarsened(0)

    def test_keeps_the_stream_non_strict(self):
        # Both batches re-add an edge that is already there.
        eg = EvolvingGraph(4, es((0, 1), (1, 2)), [
            DeltaBatch(additions=es((0, 1), (2, 3))),
            DeltaBatch(additions=es((2, 3)), deletions=es((1, 2))),
        ], strict=False)
        for factor in (1, 2):
            coarse = eg.coarsened(factor)
            assert coarse.strict is False
            assert coarse.snapshot_edges(-1) == es((0, 1), (2, 3))

    @given(evolving_graphs(max_batches=6))
    def test_coarsened_snapshots_are_a_subsequence(self, eg):
        for factor in (2, 3):
            coarse = eg.coarsened(factor)
            originals = eg.all_snapshot_edges()
            kept = [
                originals[min(k * factor, eg.num_snapshots - 1)]
                for k in range(coarse.num_snapshots)
            ]
            assert coarse.all_snapshot_edges() == kept


@given(evolving_graphs())
def test_random_streams_are_well_formed(eg):
    """Every generated snapshot stays within the vertex range and the
    batch algebra replays cleanly from the base."""
    current = eg.snapshot_edges(0)
    for t, batch in enumerate(eg.batches):
        current = batch.apply(current)
        assert current == eg.snapshot_edges(t + 1)
        assert current.max_vertex() < eg.num_vertices
