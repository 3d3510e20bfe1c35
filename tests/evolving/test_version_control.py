"""Tests for repro.evolving.version_control (Table 1 primitives)."""

import pytest
from hypothesis import given, settings

from repro.core.common import CommonGraphDecomposition
from repro.errors import SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.evolving.version_control import VersionController
from repro.graph.edgeset import EdgeSet
from tests.strategies import evolving_graphs


def es(*pairs):
    return EdgeSet.from_pairs(list(pairs))


@pytest.fixture
def controller():
    base = es((0, 1), (1, 2), (2, 3))
    batches = [
        DeltaBatch(additions=es((3, 0)), deletions=es((0, 1))),
        DeltaBatch(additions=es((0, 1)), deletions=es((2, 3))),
    ]
    return VersionController(EvolvingGraph(4, base, batches))


class TestGetVersion:
    def test_matches_snapshot(self, controller):
        for i in range(controller.num_versions):
            overlay = controller.get_version(i)
            assert overlay.edge_set() == controller.evolving.snapshot_edges(i)

    def test_overlay_shares_common_csr(self, controller):
        a = controller.get_version(0)
        b = controller.get_version(1)
        assert a.base is b.base  # the common CSR object is shared

    def test_out_of_range(self, controller):
        with pytest.raises(SnapshotError):
            controller.get_version(5)


class TestDiff:
    def test_adjacent_diff_matches_batch(self, controller):
        batch = controller.evolving.batches[0]
        diff = controller.diff(0, 1)
        assert diff.additions == batch.additions
        assert diff.deletions == batch.deletions

    def test_diff_applies(self, controller):
        diff = controller.diff(0, 2)
        out = diff.apply(controller.evolving.snapshot_edges(0))
        assert out == controller.evolving.snapshot_edges(2)

    def test_self_diff_empty(self, controller):
        diff = controller.diff(1, 1)
        assert diff.size == 0

    def test_self_diff_empty_at_every_version(self, controller):
        for version in range(controller.num_versions):
            diff = controller.diff(version, version)
            assert diff.size == 0
            assert diff.additions == EdgeSet.empty()
            assert diff.deletions == EdgeSet.empty()

    def test_reversed_order_is_inverse_batch(self, controller):
        forward = controller.diff(0, 2)
        backward = controller.diff(2, 0)
        assert backward == forward.inverse()
        # Round-tripping restores the starting snapshot exactly.
        start = controller.evolving.snapshot_edges(0)
        assert backward.apply(forward.apply(start)) == start

    def test_out_of_range(self, controller):
        with pytest.raises(SnapshotError):
            controller.diff(0, 9)

    def test_out_of_range_each_argument(self, controller):
        n = controller.num_versions
        for a, b in ((n, 0), (0, n), (-1, 0), (0, -1)):
            with pytest.raises(SnapshotError, match="out of range"):
                controller.diff(a, b)


class TestNewVersion:
    def test_appends_and_decomposes(self, controller):
        before = controller.num_versions
        idx = controller.new_version(additions=es((3, 1)), deletions=es((1, 2)))
        assert idx == before
        assert controller.num_versions == before + 1
        # New snapshot retrievable and correct.
        overlay = controller.get_version(idx)
        assert (3, 1) in overlay.edge_set()
        assert (1, 2) not in overlay.edge_set()

    def test_common_graph_shrinks_when_touched(self, controller):
        common_before = controller.decomposition.common
        touched = next(iter(common_before))
        controller.new_version(additions=EdgeSet.empty(), deletions=es(touched))
        assert touched not in controller.decomposition.common
        # Decomposition still reconstructs every snapshot.
        for i in range(controller.num_versions):
            assert (
                controller.decomposition.snapshot_edges(i)
                == controller.evolving.snapshot_edges(i)
            )

    def test_matches_full_rebuild(self, controller):
        controller.new_version(additions=es((3, 2)), deletions=EdgeSet.empty())
        rebuilt = CommonGraphDecomposition.from_evolving(controller.evolving)
        assert rebuilt.common == controller.decomposition.common
        for a, b in zip(rebuilt.surpluses, controller.decomposition.surpluses):
            assert a == b

    def test_non_strict_batch_moves_only_its_effect(self):
        base = es((0, 1), (1, 2), (2, 3))
        controller = VersionController(EvolvingGraph(4, base, strict=False))
        # (0, 1) is re-added and (3, 0) is not there to delete: no-ops.
        controller.new_version(additions=es((0, 1), (3, 1)),
                               deletions=es((1, 2), (3, 0)))
        decomp = controller.decomposition
        assert decomp.common == es((0, 1), (2, 3))
        assert decomp.surpluses == [es((1, 2)), es((3, 1))]
        for i in range(controller.num_versions):
            assert decomp.snapshot_edges(i) == controller.evolving.snapshot_edges(i)


@settings(max_examples=60)
@given(evolving_graphs(max_batches=5))
def test_new_version_is_from_evolving(eg):
    """Appending the stream batch by batch builds the decomposition
    ``from_evolving`` builds from the whole stream: one append rule."""
    vc = VersionController(EvolvingGraph(eg.num_vertices, eg.snapshot_edges(0)))
    for batch in eg.batches:
        vc.new_version(batch.additions, batch.deletions)
    rebuilt = CommonGraphDecomposition.from_evolving(eg)
    assert vc.decomposition.common == rebuilt.common
    assert vc.decomposition.surpluses == rebuilt.surpluses
    assert vc.get_version(vc.num_versions - 1).edge_set() == eg.snapshot_edges(-1)


@settings(max_examples=30)
@given(evolving_graphs(max_batches=3))
def test_diff_between_any_versions(eg):
    vc = VersionController(eg)
    n = vc.num_versions
    for a in range(n):
        for b in range(n):
            diff = vc.diff(a, b)
            out = diff.apply(eg.snapshot_edges(a))
            assert out == eg.snapshot_edges(b)
