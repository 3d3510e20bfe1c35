"""Equivalence laws behind the service's incremental maintenance.

Two properties keep the live decomposition honest:

* ``restrict(i, j)`` must behave exactly like decomposing the snapshot
  slice ``i..j`` from scratch (``from_snapshots``) — same common graph,
  same surpluses, same interval surpluses everywhere;
* ``extended(batch, drop)`` (one snapshot appended by its batch, the
  oldest ``drop`` snapshots slid out) must be indistinguishable from
  rebuilding the decomposition from the snapshots of the same window.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.errors import DeltaError, SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import HashWeights

from tests.conftest import assert_values_equal, oracle_values
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=8, seed=3)


def all_snapshots(evolving):
    return [evolving.snapshot_edges(i) for i in range(evolving.num_snapshots)]


def batch_of(additions=(), deletions=()):
    return DeltaBatch(additions=EdgeSet.from_pairs(additions),
                      deletions=EdgeSet.from_pairs(deletions))


def assert_decompositions_equal(a, b, context=""):
    __tracebackhide__ = True
    assert a.num_vertices == b.num_vertices, context
    assert a.num_snapshots == b.num_snapshots, context
    assert a.common == b.common, f"{context}: common graphs differ"
    for index, (sa, sb) in enumerate(zip(a.surpluses, b.surpluses)):
        assert sa == sb, f"{context}: surplus {index} differs"
    n = a.num_snapshots
    for i in range(n):
        for j in range(i, n):
            assert a.interval_surplus(i, j) == b.interval_surplus(i, j), (
                f"{context}: interval surplus ({i}, {j}) differs"
            )


class TestRestrictEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(evolving_graphs(), st.data())
    def test_restrict_equals_from_snapshots_on_slice(self, evolving, data):
        """``restrict(i, j)`` ≡ ``from_snapshots(snapshots[i..j])``."""
        decomposition = CommonGraphDecomposition.from_evolving(evolving)
        n = decomposition.num_snapshots
        first = data.draw(st.integers(0, n - 1), label="first")
        last = data.draw(st.integers(first, n - 1), label="last")
        snapshots = all_snapshots(evolving)
        direct = CommonGraphDecomposition.from_snapshots(
            evolving.num_vertices, snapshots[first:last + 1]
        )
        assert_decompositions_equal(
            decomposition.restrict(first, last), direct,
            f"restrict({first}, {last})",
        )


class TestExtendedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(evolving_graphs(max_batches=4))
    def test_extension_matches_from_scratch_rebuild(self, evolving):
        """Growing one batch at a time ≡ decomposing all snapshots."""
        snapshots = all_snapshots(evolving)
        live = CommonGraphDecomposition.from_snapshots(
            evolving.num_vertices, snapshots[:1]
        )
        for count, batch in enumerate(evolving.batches, start=2):
            live = live.extended(batch)
            rebuilt = CommonGraphDecomposition.from_snapshots(
                evolving.num_vertices, snapshots[:count]
            )
            assert_decompositions_equal(live, rebuilt,
                                        f"after snapshot {count - 1}")

    @settings(max_examples=60, deadline=None)
    @given(evolving_graphs(max_batches=6), st.data())
    def test_any_slide_schedule_matches_the_window_rebuild(self, evolving,
                                                           data):
        """Chained ``extended(batch, drop)`` ≡ ``from_snapshots`` on the
        window the drops leave, and its range answers are the oracle's."""
        snapshots = all_snapshots(evolving)
        live = CommonGraphDecomposition.from_snapshots(
            evolving.num_vertices, snapshots[:1]
        )
        first = 0  # absolute version of the window's first snapshot
        for last, batch in enumerate(evolving.batches, start=1):
            drop = data.draw(st.integers(0, live.num_snapshots),
                             label=f"drop at version {last}")
            live = live.extended(batch, drop)
            first += drop
            rebuilt = CommonGraphDecomposition.from_snapshots(
                evolving.num_vertices, snapshots[first:last + 1]
            )
            assert_decompositions_equal(live, rebuilt,
                                        f"window [{first}, {last}]")
        n = live.num_snapshots
        lo = data.draw(st.integers(0, n - 1), label="range first")
        hi = data.draw(st.integers(lo, n - 1), label="range last")
        source = data.draw(st.integers(0, evolving.num_vertices - 1),
                           label="source")
        for name in ("BFS", "SSSP"):
            algorithm = get_algorithm(name)
            got = WorkSharingEvaluator(
                live, algorithm, source, weight_fn=WF, first=lo, last=hi,
            ).run().snapshot_values
            want = oracle_values(evolving, algorithm, source,
                                 first + lo, first + hi, WF)
            assert len(got) == len(want)
            for k, (a, b) in enumerate(zip(got, want)):
                assert_values_equal(a, b, f"{name} version {first + lo + k}")

    def test_extension_rejects_out_of_range_vertices(self):
        decomposition = CommonGraphDecomposition.from_snapshots(
            4, [EdgeSet.from_pairs([(0, 1), (1, 2)])]
        )
        with pytest.raises(SnapshotError):
            decomposition.extended(batch_of(additions=[(0, 7)]))

    def test_extension_rejects_a_drop_that_keeps_no_snapshot(self):
        decomposition = CommonGraphDecomposition.from_snapshots(
            4, [EdgeSet.from_pairs([(0, 1)])]
        )
        for drop in (-1, 2):
            with pytest.raises(SnapshotError):
                decomposition.extended(batch_of(additions=[(1, 2)]), drop)

    @pytest.mark.parametrize("batch", [
        batch_of(additions=[(0, 1)]),   # already common
        batch_of(additions=[(2, 3)]),   # already in the tip's surplus
        batch_of(deletions=[(1, 2)]),   # left the tip a snapshot ago
        batch_of(deletions=[(3, 0)]),   # never existed
    ])
    def test_extension_rejects_a_batch_that_does_not_fit_the_tip(self, batch):
        """Strict, like ``batch.apply(tip)``: a stale tip must not extend."""
        decomposition = CommonGraphDecomposition.from_snapshots(4, [
            EdgeSet.from_pairs([(0, 1), (1, 2)]),
            EdgeSet.from_pairs([(0, 1), (2, 3)]),
        ])
        with pytest.raises(DeltaError):
            decomposition.extended(batch)

    def test_extension_with_nothing_departed_shares_the_common_graph(self):
        decomposition = CommonGraphDecomposition.from_snapshots(
            4, [EdgeSet.from_pairs([(0, 1), (1, 2)])]
        )
        extended = decomposition.extended(batch_of(additions=[(2, 3)]))
        assert extended.common is decomposition.common
        assert extended.surpluses == [
            EdgeSet(), EdgeSet.from_pairs([(2, 3)])]

    def test_extension_handles_total_turnover(self):
        """A new snapshot sharing no edges empties the common graph."""
        decomposition = CommonGraphDecomposition.from_snapshots(
            4, [EdgeSet.from_pairs([(0, 1), (1, 2)])]
        )
        extended = decomposition.extended(
            batch_of(additions=[(2, 3)], deletions=[(0, 1), (1, 2)]))
        rebuilt = CommonGraphDecomposition.from_snapshots(
            4,
            [EdgeSet.from_pairs([(0, 1), (1, 2)]),
             EdgeSet.from_pairs([(2, 3)])],
        )
        assert_decompositions_equal(extended, rebuilt, "total turnover")
        assert not extended.common

    def test_an_edge_leaves_and_rejoins_the_common_graph_across_a_slide(self):
        """(1, 2) is absent from snapshot 0 only; dropping it brings the
        edge back, and a later deletion makes it depart again."""
        edge = EdgeSet.from_pairs([(1, 2)])
        decomposition = CommonGraphDecomposition.from_snapshots(4, [
            EdgeSet.from_pairs([(0, 1)]),
            EdgeSet.from_pairs([(0, 1), (1, 2)]),
        ])
        assert edge.isdisjoint(decomposition.common)
        slid = decomposition.extended(batch_of(additions=[(2, 3)]), drop=1)
        assert edge.issubset(slid.common)
        assert all(edge.isdisjoint(s) for s in slid.surpluses)
        gone = slid.extended(batch_of(deletions=[(1, 2)]))
        assert edge.isdisjoint(gone.common)
        assert [edge.issubset(s) for s in gone.surpluses] == [
            True, True, False]

    def test_a_slide_with_nothing_to_rejoin_only_drops_the_column(self):
        """The dropped snapshot had every edge the kept ones share."""
        decomposition = CommonGraphDecomposition.from_snapshots(4, [
            EdgeSet.from_pairs([(0, 1), (1, 2)]),
            EdgeSet.from_pairs([(0, 1)]),
        ])
        slid = decomposition.extended(batch_of(additions=[(2, 3)]), drop=1)
        assert slid.common is decomposition.common
        assert slid.surpluses == [EdgeSet(), EdgeSet.from_pairs([(2, 3)])]
