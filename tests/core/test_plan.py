"""Plan once, evaluate many: the decomposition's query-independent plan.

The common CSR, the Δ of every ICG (one ``IntervalDelta``), and per
planned range the schedule and its sweeps are built on first use and
then read by every evaluator of that decomposition — whatever its
source, algorithm or snapshot range — and never outlive it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.core import engine, steiner
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator, planned_schedule
from repro.core.steiner import build_schedule, direct_hop_tree, greedy_steiner
from repro.core.triangular_grid import TriangularGrid
from repro.errors import SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.evolving.generator import generate_evolving_graph
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.generators import rmat_edges
from repro.graph.stacked import IntervalDelta
from repro.graph.weights import HashWeights, UnitWeights
from tests.conftest import assert_values_equal, oracle_values

WF = HashWeights(max_weight=8, seed=7)


def plan_of(decomposition):
    with decomposition._cache_lock:
        return dict(decomposition._plan)


def plan_arrays(value):
    """Every array reachable from one plan value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for part in value:
            yield from plan_arrays(part)
    elif isinstance(value, CSRGraph):
        yield from (value.indptr, value.indices, value.weights)
    elif isinstance(value, IntervalDelta):
        yield value.until
        yield from plan_arrays(value.csr)
    elif isinstance(value, engine._Level):
        yield from (value.parents, value.origins, value.targets,
                    value.weights, value.offsets,
                    value.graph.first, value.graph.last)


def plan_objects(decomposition):
    """Identities of everything the plan holds, arrays and CSRs included."""
    ids = set()
    for value in plan_of(decomposition).values():
        ids.add(id(value))
        ids.update(id(array) for array in plan_arrays(value))
    return ids


def assert_range_is_oracle(decomposition, algorithm, source, first, last,
                           weight_fn=WF, **kwargs):
    result = WorkSharingEvaluator(
        decomposition, algorithm, source, weight_fn=weight_fn,
        first=first, last=last, **kwargs,
    ).run()
    want = oracle_values(decomposition, algorithm, source, first, last,
                         weight_fn)
    assert len(result.snapshot_values) == len(want)
    for k, (got, expected) in enumerate(zip(result.snapshot_values, want)):
        assert_values_equal(got, expected,
                            f"{algorithm.name} [{first},{last}] @{first + k}")
    return result


def test_three_evaluators_build_the_plan_once(small_evolving, monkeypatch):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    calls = {"build_schedule": 0, "from_edge_set": 0, "levels": 0, "weights": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "build_schedule",
                        counted("build_schedule", engine.build_schedule))
    monkeypatch.setattr(
        CSRGraph, "from_edge_set",
        classmethod(counted("from_edge_set", CSRGraph.from_edge_set.__func__)))
    monkeypatch.setattr(engine, "_levels", counted("levels", engine._levels))
    monkeypatch.setattr(HashWeights, "__call__",
                        counted("weights", HashWeights.__call__))

    evaluators = [
        WorkSharingEvaluator(decomp, get_algorithm(name), source, weight_fn=WF)
        for name, source in (("BFS", 3), ("SSSP", 5), ("BFS", 9))
    ]
    evaluators[0].run()
    first_run = dict(calls)
    # Two CSRs whatever the schedule: the common graph and the Δ of
    # every ICG; every batch is read off the second.
    assert first_run == {"build_schedule": 1, "from_edge_set": 2,
                         "levels": 1, "weights": 2}
    # The plan asks only for what it uses: halving compares no sizes and
    # batches are filters on the Δ, so no interval surplus is computed
    # (n(n+1)/2 of them before; the bound the roadmap asked for is 2n-1).
    assert len(decomp._interval_cache) == 0

    for evaluator in evaluators[1:]:
        evaluator.run()
    assert calls == first_run
    schedule = evaluators[0].schedule
    assert all(e.schedule is schedule for e in evaluators)
    assert all(e.base_csr is evaluators[0].base_csr for e in evaluators)
    assert all(e._levels is evaluators[0]._levels for e in evaluators)
    # A later constructor on the planned decomposition builds nothing.
    WorkSharingEvaluator(decomp, get_algorithm("SSSP"), 0, weight_fn=WF).run()
    assert calls == first_run


def test_level_seeds_are_the_grid_labels(small_evolving):
    """The sweeps' batches, read off the Δ by snapshot span, are the
    Triangular Grid's labels (edge-set algebra), edge for edge."""
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    V = decomp.num_vertices
    for strategy in ("work-sharing", "greedy", "direct-hop"):
        evaluator = WorkSharingEvaluator(
            decomp, get_algorithm("SSSP"), 3, weight_fn=WF,
            schedule=planned_schedule(decomp, strategy, 1, 6), first=1, last=6)
        edges = [edge for level in evaluator._levels for edge in level.edges]
        assert edges == list(evaluator.schedule.edges())
        for level in evaluator._levels:
            for row, (parent, child) in enumerate(level.edges):
                lo, hi = level.offsets[row], level.offsets[row + 1]
                src, dst = evaluator.grid.label(parent, child).arrays()
                assert np.array_equal(level.origins[lo:hi], row * V + src)
                assert np.array_equal(level.targets[lo:hi], row * V + dst)
                assert np.array_equal(level.weights[lo:hi], WF(src, dst))


def test_a_supplied_schedule_is_walked_as_given(small_evolving, monkeypatch):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    grid = TriangularGrid(decomp)
    sssp = get_algorithm("SSSP")
    default = WorkSharingEvaluator(decomp, sssp, 3, weight_fn=WF)
    default.run()
    before = plan_of(decomp)
    def graphs_only(key, build):
        # Never the planned tree or its sweeps: reading them fails here.
        assert key[0] in ("common", "delta"), key
        return before[key]

    monkeypatch.setattr(decomp, "plan", graphs_only)
    for tree in (direct_hop_tree(grid), greedy_steiner(grid, compress=False)):
        evaluator = WorkSharingEvaluator(decomp, sssp, 3, weight_fn=WF,
                                         schedule=tree)
        assert evaluator.schedule is tree
        result = evaluator.run()
        assert result.additions_processed == tree.cost(grid)
        assert result.stabilisations == tree.num_stabilisations()
        for got, want in zip(result.snapshot_values,
                             oracle_values(decomp, sssp, 3, 0, grid.n - 1, WF)):
            assert_values_equal(got, want)
    assert plan_of(decomp).keys() == before.keys()


@pytest.mark.parametrize("strategy", sorted(steiner._BUILDERS))
def test_every_range_matches_the_oracle_and_the_restricted_tree(
        small_evolving, strategy):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    n = decomp.num_snapshots
    sssp = get_algorithm("SSSP")
    for first in range(n):
        for last in range(first, n):
            if strategy == "exact" and last - first + 1 > 6:
                continue  # exponential; refuses beyond 6 snapshots
            tree = planned_schedule(decomp, strategy, first, last)
            restricted = build_schedule(
                TriangularGrid(decomp.restrict(first, last)), strategy)
            shifted = {
                (c[0] + first, c[1] + first): (p[0] + first, p[1] + first)
                for c, p in restricted.parent.items()
            }
            assert tree.root == (first, last)
            assert tree.parent == shifted, (strategy, first, last)
            assert planned_schedule(decomp, strategy, first, last) is tree
            result = assert_range_is_oracle(decomp, sssp, 3, first, last,
                                            schedule=tree)
            assert result.additions_processed == restricted.cost(
                TriangularGrid(decomp.restrict(first, last)))


def test_default_schedule_of_a_range_is_the_planned_work_sharing_tree(
        small_evolving, algorithm):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    evaluator = WorkSharingEvaluator(decomp, algorithm, 3, weight_fn=WF,
                                     first=2, last=6)
    assert evaluator.schedule is planned_schedule(decomp, "work-sharing", 2, 6)
    assert_range_is_oracle(decomp, algorithm, 3, 2, 6)


def test_invalid_range_is_refused(small_evolving):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    bfs = get_algorithm("BFS")
    for first, last in ((5, 2), (0, 99), (-1, 3)):
        with pytest.raises(SnapshotError, match="invalid range"):
            WorkSharingEvaluator(decomp, bfs, 0, first=first, last=last)


class TestNoStalePlan:
    """A new decomposition starts with an empty plan: nothing planned
    for the old window is reachable from (or answers for) the new one."""

    @staticmethod
    def planned(decomp):
        n = decomp.num_snapshots
        for first, last in ((0, n - 1), (1, n - 2)):
            assert_range_is_oracle(decomp, get_algorithm("SSSP"), 3,
                                   first, last)
        assert plan_of(decomp)
        return decomp

    @staticmethod
    def assert_fresh_and_right(old, new):
        assert plan_of(new) == {}
        n = new.num_snapshots
        for first, last in ((0, n - 1), (n - 1, n - 1), (1, n - 1)):
            for name in ("BFS", "SSSP"):
                assert_range_is_oracle(new, get_algorithm(name), 3,
                                       first, last)
        assert not plan_objects(old) & plan_objects(new)

    @pytest.mark.parametrize("departs", [False, True])
    def test_after_extended(self, small_evolving, departs):
        old = self.planned(CommonGraphDecomposition.from_evolving(small_evolving))
        tip = old.snapshot_edges(old.num_snapshots - 1)
        fresh = EdgeSet.from_pairs([(3, 200), (200, 201), (201, 7)]) - tip
        gone = EdgeSet(old.common.codes[::7]) if departs else EdgeSet()
        new = old.extended(DeltaBatch(additions=fresh, deletions=gone))
        assert (len(new.common) < len(old.common)) == departs
        self.assert_fresh_and_right(old, new)

    def test_after_the_window_slide(self, small_evolving):
        old = self.planned(CommonGraphDecomposition.from_evolving(small_evolving))
        tip = old.snapshot_edges(old.num_snapshots - 1)
        fresh = EdgeSet.from_pairs([(3, 200), (200, 9)]) - tip
        new = old.extended(DeltaBatch(additions=fresh), drop=1)
        assert new.num_snapshots == old.num_snapshots
        self.assert_fresh_and_right(old, new)


def test_the_common_csr_pulls_where_the_plan_outlives_an_ingest(
        small_evolving):
    """A decomposition built from a history (``from_evolving``,
    ``restrict``) plans its common CSR with the in-edge view; an
    ``extended()`` one, which lives one ingest, plans it without."""
    built = CommonGraphDecomposition.from_evolving(small_evolving)
    tip = built.snapshot_edges(built.num_snapshots - 1)
    batch = DeltaBatch(additions=EdgeSet.from_pairs([(3, 200), (200, 9)]) - tip)
    pulls = {
        "from_evolving": (built, True),
        "restrict": (built.restrict(1, 5), True),
        "extended": (built.extended(batch), False),
        "slid": (built.extended(batch, drop=1), False),
    }
    for name, (decomp, pull) in pulls.items():
        common = engine.planned_graphs(decomp, WF)[0]
        assert (common.in_edges is not None) == pull, name
        assert common == decomp.common_csr(WF), name
        assert_range_is_oracle(decomp, get_algorithm("SSSP"), 3, 0,
                               decomp.num_snapshots - 1)


def test_two_threads_planning_a_fresh_decomposition_share_one_plan(
        small_evolving):
    decomp = CommonGraphDecomposition.from_evolving(small_evolving)
    barrier = threading.Barrier(2)
    evaluators, results, errors = {}, {}, []

    def work(slot):
        try:
            evaluator = evaluators[slot] = WorkSharingEvaluator(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF)
            barrier.wait(timeout=30)
            results[slot] = evaluator.run()
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)

    for got, want in zip(results[0].snapshot_values,
                         results[1].snapshot_values):
        assert_values_equal(got, want)
    a, b = evaluators[0], evaluators[1]
    assert a.schedule is b.schedule and a.base_csr is b.base_csr
    # Whoever lost a race adopted the stored value: one entry per key,
    # and both walks read the same sweeps from it.
    plan = plan_of(decomp)
    assert sorted(key[0] for key in plan) == [
        "common", "delta", "levels", "schedule"]
    assert a.delta is b.delta is plan[("delta", WF)]
    assert a._levels is b._levels is plan[
        ("levels", "work-sharing") + a.schedule.root + (WF,)]


class TestMemoKeysByValue:
    def test_equal_weight_functions_share_csrs(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        bfs = get_algorithm("BFS")
        a = WorkSharingEvaluator(decomp, bfs, 3, weight_fn=HashWeights(64, 0))
        b = WorkSharingEvaluator(decomp, bfs, 3, weight_fn=HashWeights(64, 0))
        other = WorkSharingEvaluator(decomp, bfs, 3,
                                     weight_fn=HashWeights(64, 1))
        assert a.base_csr is b.base_csr
        assert a.base_csr is not other.base_csr
        assert a.delta is b.delta and a._levels is b._levels
        assert a.delta is not other.delta
        assert a._levels is not other._levels
        # None means unit weights, by value too.
        unit = WorkSharingEvaluator(decomp, bfs, 3)
        assert unit.base_csr is WorkSharingEvaluator(
            decomp, bfs, 3, weight_fn=UnitWeights()).base_csr

    def test_a_custom_callable_keys_by_identity(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        bfs = get_algorithm("BFS")

        def halves(sources, targets):
            return np.full(np.asarray(sources).shape, 0.5)

        a = WorkSharingEvaluator(decomp, bfs, 3, weight_fn=halves)
        assert a.base_csr is WorkSharingEvaluator(
            decomp, bfs, 3, weight_fn=halves).base_csr
        assert a.base_csr is not WorkSharingEvaluator(
            decomp, bfs, 3, weight_fn=lambda s, t: halves(s, t)).base_csr

    def test_sweeping_every_range_holds_the_delta_once(self):
        n = 16
        eg = generate_evolving_graph(
            num_vertices=64, base=rmat_edges(scale=6, num_edges=300, seed=2),
            num_snapshots=n, batch_size=12, readd_fraction=0.6, seed=4,
        )
        decomp = CommonGraphDecomposition.from_evolving(eg)
        bfs = get_algorithm("BFS")
        grid = TriangularGrid(decomp)
        seeds = 0
        for first in range(n):
            for last in range(first, n):
                for _ in range(2):  # an equal weight function per query
                    evaluator = WorkSharingEvaluator(
                        decomp, bfs, 1, weight_fn=HashWeights(64, 0),
                        first=first, last=last,
                    )
                    evaluator.run()
                seeds += evaluator.schedule.cost(grid.subgrid(first, last))
        plan = plan_of(decomp)
        kinds = [key[0] for key in plan]
        assert kinds.count("common") == kinds.count("delta") == 1
        assert kinds.count("levels") == kinds.count("schedule") == grid.num_nodes()
        # What a range adds to the plan is its tree and its seeds — no
        # graph, nothing of the size of the vertex set.
        per_range = sum(
            array.nbytes for key, value in plan.items() if key[0] == "levels"
            for array in plan_arrays(value))
        rows = sum(len(tree.parent) for key, tree in plan.items()
                   if key[0] == "schedule")
        assert per_range <= 24 * seeds + 64 * rows + 8 * grid.num_nodes() * 8
