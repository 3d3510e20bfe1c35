"""Tests for the CommonGraph decomposition."""

import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import CommonGraphDecomposition
from repro.errors import DeltaError, SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.edgeset import EdgeSet
from tests.strategies import edge_pairs, evolving_graphs


def es(*pairs):
    return EdgeSet.from_pairs(list(pairs))


@pytest.fixture
def eg():
    base = es((0, 1), (1, 2), (2, 3), (3, 0))
    batches = [
        DeltaBatch(additions=es((0, 2)), deletions=es((1, 2))),
        DeltaBatch(additions=es((1, 2)), deletions=es((0, 2), (2, 3))),
    ]
    return EvolvingGraph(4, base, batches)


class TestConstruction:
    def test_common_is_intersection(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        want = eg.snapshot_edges(0) & eg.snapshot_edges(1) & eg.snapshot_edges(2)
        assert decomp.common == want
        assert set(decomp.common) == {(0, 1), (3, 0)}

    def test_from_snapshots_equivalent(self, eg):
        a = CommonGraphDecomposition.from_evolving(eg)
        b = CommonGraphDecomposition.from_snapshots(4, eg.all_snapshot_edges())
        assert a.common == b.common
        assert a.surpluses == b.surpluses

    def test_reconstruction(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        for i in range(eg.num_snapshots):
            assert decomp.snapshot_edges(i) == eg.snapshot_edges(i)

    def test_surpluses_disjoint_from_common(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        for s in decomp.surpluses:
            assert s.isdisjoint(decomp.common)

    def test_single_snapshot(self):
        decomp = CommonGraphDecomposition.from_snapshots(3, [es((0, 1))])
        assert decomp.common == es((0, 1))
        assert len(decomp.surpluses[0]) == 0

    def test_empty_snapshots_rejected(self):
        with pytest.raises(SnapshotError):
            CommonGraphDecomposition.from_snapshots(3, [])

    def test_overlapping_surplus_rejected(self):
        with pytest.raises(SnapshotError):
            CommonGraphDecomposition(3, es((0, 1)), [es((0, 1))])


class TestIntervalSurplus:
    def test_full_interval_is_empty(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        assert len(decomp.interval_surplus(0, eg.num_snapshots - 1)) == 0

    def test_point_interval_is_snapshot_surplus(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        for i in range(eg.num_snapshots):
            assert decomp.interval_surplus(i, i) == decomp.surpluses[i]

    def test_interval_matches_direct_intersection(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        want = eg.snapshot_edges(0) & eg.snapshot_edges(1)
        assert decomp.interval_edges(0, 1) == want

    def test_invalid_interval(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        with pytest.raises(SnapshotError):
            decomp.interval_surplus(1, 0)
        with pytest.raises(SnapshotError):
            decomp.interval_surplus(0, 5)

    def test_memoisation_returns_same_object(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        a = decomp.interval_surplus(0, 1)
        assert decomp.interval_surplus(0, 1) is a


class TestCosts:
    def test_direct_hop_batches(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        total = decomp.total_direct_hop_additions()
        assert total == sum(len(s) for s in decomp.surpluses)
        for i in range(eg.num_snapshots):
            assert decomp.direct_hop_batch(i) == decomp.surpluses[i]

    def test_snapshot_storage_is_the_materialised_sum(self, eg):
        """Counted from the sizes, the one-CSR-per-snapshot storage equals
        the snapshots' edge counts for a built, an extended (sliding, so
        the common graph moves) and a restricted decomposition."""
        built = CommonGraphDecomposition.from_evolving(eg)
        slid = built.extended(
            DeltaBatch(additions=es((1, 3)), deletions=es((3, 0))), 1)
        assert slid.common != built.common
        for decomp in (built, slid, built.restrict(1, 2)):
            assert decomp.snapshot_storage_edges() == sum(
                len(decomp.snapshot_edges(i))
                for i in range(decomp.num_snapshots))

    def test_materialisation(self, eg):
        decomp = CommonGraphDecomposition.from_evolving(eg)
        csr = decomp.common_csr()
        assert csr.edge_set() == decomp.common
        delta = decomp.delta_csr(decomp.surpluses[1])
        assert delta.edge_set() == decomp.surpluses[1]


@settings(max_examples=40)
@given(evolving_graphs())
def test_decomposition_invariants_random(eg):
    decomp = CommonGraphDecomposition.from_evolving(eg)
    n = eg.num_snapshots
    # (1) the common graph is inside every snapshot
    for i in range(n):
        assert decomp.common.issubset(eg.snapshot_edges(i))
        # (2) common + surplus reconstructs the snapshot exactly
        assert decomp.snapshot_edges(i) == eg.snapshot_edges(i)
    # (3) interval surpluses are intersections of point surpluses
    for i in range(n):
        for j in range(i, n):
            want = decomp.surpluses[i]
            for t in range(i + 1, j + 1):
                want = want & decomp.surpluses[t]
            assert decomp.interval_surplus(i, j) == want
    # (4) equivalence of both constructors
    other = CommonGraphDecomposition.from_snapshots(
        eg.num_vertices, eg.all_snapshot_edges()
    )
    assert other.common == decomp.common


def reference_from_evolving(evolving):
    """``from_evolving`` as it was before it replayed the stream on the
    surpluses (verbatim): every snapshot is materialised."""
    touched = EdgeSet.empty()
    for batch in evolving.batches:
        touched = touched | batch.additions | batch.deletions
    common = evolving.snapshot_edges(0) - touched
    surpluses = [
        evolving.snapshot_edges(i) - common
        for i in range(evolving.num_snapshots)
    ]
    return CommonGraphDecomposition(evolving.num_vertices, common, surpluses)


@st.composite
def loose_evolving_graphs(draw):
    """A non-strict stream: batches add edges that may be present and
    delete edges that may be absent, over few enough edges that re-adds
    and re-deletes are the norm."""
    n, pairs = draw(edge_pairs(max_vertices=5, max_edges=12))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    batches = []
    for _ in range(draw(st.integers(0, 5))):
        picked = draw(st.lists(st.sampled_from(possible), max_size=6,
                               unique=True))
        cut = draw(st.integers(0, len(picked)))
        batches.append(DeltaBatch(additions=EdgeSet.from_pairs(picked[:cut]),
                                  deletions=EdgeSet.from_pairs(picked[cut:])))
    return EvolvingGraph(n, EdgeSet.from_pairs(pairs), batches, strict=False)


@settings(max_examples=120, deadline=None)
@given(st.one_of(evolving_graphs(max_vertices=6, max_edges=14, max_batches=6),
                 loose_evolving_graphs()))
def test_streamed_from_evolving_is_the_materialising_one(eg):
    """Not ``from_snapshots``: on a non-strict stream a touched edge can
    sit in every snapshot, and §4.1 still keeps it out of the common graph."""
    fresh = EvolvingGraph(eg.num_vertices, eg.snapshot_edges(0), eg.batches,
                          strict=eg.strict)
    got = CommonGraphDecomposition.from_evolving(fresh)
    want = reference_from_evolving(eg)
    assert np.array_equal(got.common.codes, want.common.codes)
    assert len(got.surpluses) == len(want.surpluses)
    for a, b in zip(got.surpluses, want.surpluses):
        assert np.array_equal(a.codes, b.codes)
    for i in range(eg.num_snapshots):
        assert got.snapshot_edges(i) == eg.snapshot_edges(i)


@pytest.mark.parametrize("bad", [
    DeltaBatch(additions=es((0, 1))),   # already present
    DeltaBatch(deletions=es((0, 2))),   # deleted by the batch before
    DeltaBatch(deletions=es((2, 0))),   # never present
])
def test_malformed_strict_batch_still_raises(eg, bad):
    first = DeltaBatch(additions=es((1, 3)), deletions=es((0, 2)))
    stream = EvolvingGraph(4, eg.snapshot_edges(1), [first, bad])
    with pytest.raises(DeltaError) as streamed:
        CommonGraphDecomposition.from_evolving(stream)
    with pytest.raises(DeltaError) as materialised:
        reference_from_evolving(
            EvolvingGraph(4, eg.snapshot_edges(1), [first, bad]))
    assert str(streamed.value) == str(materialised.value)
    # The same stream read non-strictly decomposes.
    loose = EvolvingGraph(4, eg.snapshot_edges(1), [first, bad], strict=False)
    assert CommonGraphDecomposition.from_evolving(loose).num_snapshots == 3


class TestConcurrentMemoUse:
    """The interval-surplus memo is shared by lock-free readers.

    The query service publishes one decomposition to many evaluator
    threads while an ingest extends/restricts it; lazy memo inserts
    (``interval_surplus``) race each other, and ``extended``/``restrict``
    read only what is never mutated, so nothing may raise.
    """

    def test_concurrent_queries_extension_and_restriction(self):
        rng = random.Random(7)
        num_vertices = 24
        universe = [
            (u, v)
            for u in range(num_vertices)
            for v in range(num_vertices)
            if u != v
        ]

        def snapshot():
            return EdgeSet.from_pairs(rng.sample(universe, 80))

        for _ in range(5):  # fresh cold memo each round
            decomp = CommonGraphDecomposition.from_snapshots(
                num_vertices, [snapshot() for _ in range(10)]
            )
            n = decomp.num_snapshots
            new_edges, tip = snapshot(), decomp.snapshot_edges(n - 1)
            batch = DeltaBatch(additions=new_edges - tip,
                               deletions=tip - new_edges)
            errors = []

            def fill_memo():
                for i in range(n):
                    for j in range(i, n):
                        decomp.interval_surplus(i, j)

            def restrict_loop():
                for first in range(n - 1):
                    decomp.restrict(first, n - 1)

            def extend_loop():
                for _ in range(3):
                    decomp.extended(batch, drop=1)

            jobs = (fill_memo, fill_memo, restrict_loop, extend_loop)
            start = threading.Barrier(len(jobs))

            def run(job):
                try:
                    start.wait()
                    job()
                except Exception as exc:  # pragma: no cover - regression
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(job,)) for job in jobs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
