"""The memoizing planner must match the naive oracle bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.bench import WorkloadSpec, build_workload
from repro.core import engine
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.graph.weights import HashWeights
from repro.service import MemoizingPlanner
from repro.service import planner as planner_module
from repro.service.cache import CachedRange

from tests.conftest import assert_values_equal, oracle_values


@pytest.fixture
def decomposition(service_evolving):
    return CommonGraphDecomposition.from_evolving(service_evolving)


@pytest.fixture
def planner(weight_fn):
    return MemoizingPlanner(256, weight_fn)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls the walk makes into the two kernels, by name."""
    calls = dict.fromkeys(("static_compute", "incremental_additions"), 0)
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """The ``(first, last)`` of every walk the planner runs."""
    walked = []

    class Recording(WorkSharingEvaluator):
        def run(self, *args, **kwargs):
            walked.append(self.schedule.root)
            return super().run(*args, **kwargs)

    monkeypatch.setattr(planner_module, "WorkSharingEvaluator", Recording)
    return walked


def assert_bit_identical(got, want, context):
    __tracebackhide__ = True
    assert len(got) == len(want), context
    for index, (a, b) in enumerate(zip(got, want)):
        assert a.tobytes() == b.tobytes(), f"{context} @{index}"


class TestColdEvaluation:
    def test_matches_offline_evaluator(self, decomposition, planner,
                                       algorithm, weight_fn):
        """Every algorithm, full range, cold cache: values are identical."""
        last = decomposition.num_snapshots - 1
        answer = planner.evaluate(decomposition, algorithm, 0, 0, last,
                                  epoch=0)
        expected = oracle_values(decomposition, algorithm, 0, 0, last,
                                 weight_fn)
        assert len(answer.values) == last + 1
        assert (answer.node_hits, answer.node_misses) == (0, last + 1)
        for version, (got, want) in enumerate(zip(answer.values, expected)):
            assert_values_equal(got, want, f"{algorithm.name} v{version}")

    def test_subrange_matches_offline(self, decomposition, planner,
                                      algorithm, weight_fn):
        answer = planner.evaluate(decomposition, algorithm, 2, 1, 3, epoch=0)
        expected = oracle_values(decomposition, algorithm, 2, 1, 3,
                                 weight_fn)
        for got, want in zip(answer.values, expected):
            assert_values_equal(got, want, f"{algorithm.name} window")


class TestCrossQueryReuse:
    def test_repeat_query_hits_every_node(self, decomposition, planner,
                                              algorithm):
        last = decomposition.num_snapshots - 1
        cold = planner.evaluate(decomposition, algorithm, 0, 0, last, epoch=0)
        warm = planner.evaluate(decomposition, algorithm, 0, 0, last, epoch=0)
        assert warm.node_misses == 0
        assert warm.node_hits == cold.node_misses
        assert warm.additions_processed == 0
        for got, want in zip(warm.values, cold.values):
            assert_values_equal(got, want, "warm replay")

    def test_overlapping_range_resumes_and_stays_exact(
        self, decomposition, planner, algorithm, weight_fn
    ):
        """A second query over an overlapping range reuses snapshots yet
        returns exactly the oracle's values."""
        planner.evaluate(decomposition, algorithm, 0, 0, 3, epoch=0)
        warm = planner.evaluate(decomposition, algorithm, 0, 1, 3, epoch=0)
        expected = oracle_values(decomposition, algorithm, 0, 1, 3,
                                 weight_fn)
        for got, want in zip(warm.values, expected):
            assert_values_equal(got, want, f"{algorithm.name} overlap")

    def test_epochs_never_share_states(self, decomposition, planner,
                                       algorithm):
        last = decomposition.num_snapshots - 1
        planner.evaluate(decomposition, algorithm, 0, 0, last, epoch=0)
        other = planner.evaluate(decomposition, algorithm, 0, 0, last,
                                 epoch=1)
        assert other.node_hits == 0

    def test_sources_never_share_states(self, decomposition, planner,
                                        algorithm):
        last = decomposition.num_snapshots - 1
        planner.evaluate(decomposition, algorithm, 0, 0, last, epoch=0)
        other = planner.evaluate(decomposition, algorithm, 1, 0, last,
                                 epoch=0)
        assert other.node_hits == 0

    def test_algorithms_never_share_states(self, decomposition, planner,
                                           weight_fn):
        last = decomposition.num_snapshots - 1
        planner.evaluate(decomposition, get_algorithm("BFS"), 0, 0, last,
                         epoch=0)
        other = planner.evaluate(decomposition, get_algorithm("SSSP"), 0, 0,
                                 last, epoch=0)
        assert other.node_hits == 0
        assert_bit_identical(
            other.values,
            oracle_values(decomposition, get_algorithm("SSSP"), 0, 0, last,
                          weight_fn), "SSSP after BFS")

    def test_cached_states_are_isolated_copies(self, decomposition, planner,
                                               algorithm):
        """Mutating a returned answer must not poison the node cache."""
        last = decomposition.num_snapshots - 1
        first = planner.evaluate(decomposition, algorithm, 0, 0, last,
                                 epoch=0)
        for values in first.values:
            values[:] = -123.0
        again = planner.evaluate(decomposition, algorithm, 0, 0, last,
                                 epoch=0)
        assert not any((values == -123.0).all() for values in again.values)


_BITS = st.integers(-(2 ** 63), 2 ** 63 - 1)


def _entry_arrays(entry):
    base, changes = entry.compact
    return [base, *(part for change in changes for part in change)]


def _held_bytes(cache):
    """Bytes of the distinct arrays the cache's references reach."""
    arrays = {id(part): part for entry, _ in cache._entries.values()
              for part in _entry_arrays(entry)}
    return sum(array.nbytes for array in arrays.values())


class TestNodeStateCache:
    """An entry is a reference into an answer held as base + sparse Δ."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_BITS, _BITS, st.booleans()), min_size=1, max_size=24))
    def test_round_trip_is_bit_exact(self, cells):
        """Any float64 bit pattern — NaN payloads, −0.0, denormals —
        whether or not the cell differs from the snapshot before."""
        rows = [np.array([b for b, _, _ in cells], dtype=np.int64),
                np.array([b if same else v for b, v, same in cells],
                         dtype=np.int64)]
        entry = CachedRange([row.view(np.float64) for row in rows])
        planner = MemoizingPlanner(4)
        for offset in range(2):
            planner.node_cache.put(("BFS", 5, 0, offset), (entry, offset))
        # Every snapshot is held, so no walk reads the decomposition.
        answer = planner.evaluate(None, get_algorithm("BFS"), 5, 0, 1,
                                  epoch=0)
        assert answer.node_misses == 0
        for got, want in zip(answer.values, rows):
            assert np.array_equal(got.view(np.int64), want)

    def test_a_hit_aliases_nothing(self, decomposition, planner, weight_fn):
        alg = get_algorithm("SSSP")
        planner.evaluate(decomposition, alg, 0, 0, 4, epoch=0)
        first, second = (planner.evaluate(decomposition, alg, 0, 1, 3, epoch=0)
                         for _ in range(2))
        for row in first.values:
            row[:] = -2.0  # the caller keeps writing to what it got
        held = {id(part): part for entry, _ in planner.node_cache._entries.values()
                for part in _entry_arrays(entry)}
        assert not any(np.shares_memory(row, part) for row in second.values
                       for part in held.values())
        assert_bit_identical(
            second.values, oracle_values(decomposition, alg, 0, 1, 3, weight_fn),
            "second hit")

    def test_a_full_window_walk_is_held_sparsely(self):
        """LJ, 16 snapshots, one cold full-window walk: 16 snapshot
        references into one entry held in at most a quarter of 16 dense
        vectors."""
        weights = HashWeights(max_weight=64, seed=0)
        evolving = build_workload(
            WorkloadSpec(dataset="LJ", num_snapshots=16, batch_size=75,
                         edge_scale=1.0, seed=11), weight_fn=weights).evolving
        planner = MemoizingPlanner(1024, weights)
        answer = planner.evaluate(
            CommonGraphDecomposition.from_evolving(evolving),
            get_algorithm("SSSP"), int(evolving.snapshot_edges(0).arrays()[0][0]),
            0, 15, epoch=0)
        cache = planner.node_cache
        assert (answer.node_misses, len(cache)) == (16, 16)
        assert _held_bytes(cache) <= 16 * answer.values[0].nbytes / 4


@pytest.mark.service
class TestSnapshotCache:
    """The node cache indexes answered snapshots, not walk nodes."""

    def test_a_nested_range_needs_no_walk(self, decomposition, planner,
                                          algorithm, weight_fn, kernel_calls):
        last = decomposition.num_snapshots - 1
        planner.evaluate(decomposition, algorithm, 0, 0, last, epoch=0)
        assert kernel_calls["static_compute"] == 1
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))
        nested = planner.evaluate(decomposition, algorithm, 0, 1, last - 1,
                                  epoch=0)
        assert kernel_calls == {"static_compute": 0,
                                "incremental_additions": 0}
        assert (nested.node_hits, nested.node_misses) == (last - 1, 0)
        assert nested.stabilisations == nested.additions_processed == 0
        assert_bit_identical(
            nested.values,
            oracle_values(decomposition, algorithm, 0, 1, last - 1,
                          weight_fn), f"{algorithm.name} nested")

    @pytest.mark.parametrize("held, walked", [
        ([(0, 1), (4, 4)], (2, 3)),  # a hole in the middle
        ([(0, 2)], (3, 4)),          # a held prefix
        ([(3, 4)], (0, 2)),          # a held suffix
        ([(2, 2)], (0, 4)),          # held inside the missing span
    ])
    def test_partial_coverage_walks_first_to_last_missing(
        self, decomposition, planner, weight_fn, walks, held, walked
    ):
        alg = get_algorithm("SSSP")
        for first, last in held:
            planner.evaluate(decomposition, alg, 0, first, last, epoch=0)
        walks.clear()
        answer = planner.evaluate(decomposition, alg, 0, 0, 4, epoch=0)
        assert walks == [walked]
        computed = walked[1] - walked[0] + 1
        assert (answer.node_hits, answer.node_misses) == (5 - computed,
                                                          computed)
        assert_bit_identical(
            answer.values,
            oracle_values(decomposition, alg, 0, 0, 4, weight_fn),
            f"held {held}")

    def test_every_snapshot_points_into_the_answer_entry(self, decomposition,
                                                         planner):
        answer = planner.evaluate(decomposition, get_algorithm("BFS"), 3,
                                  0, 4, epoch=0)
        refs = [planner.node_cache.get(("BFS", 3, 0, snapshot))
                for snapshot in range(5)]
        assert all(entry is answer.entry for entry, _ in refs)
        assert [offset for _, offset in refs] == list(range(5))

    def test_a_scribbled_assembled_answer_does_not_poison(
        self, decomposition, planner, weight_fn
    ):
        alg = get_algorithm("SSWP")
        planner.evaluate(decomposition, alg, 1, 0, 4, epoch=0)
        for _ in range(2):
            nested = planner.evaluate(decomposition, alg, 1, 1, 3, epoch=0)
            assert nested.node_misses == 0
            assert_bit_identical(
                nested.values,
                oracle_values(decomposition, alg, 1, 1, 3, weight_fn),
                "after a scribble")
            for row in nested.values:
                row[:] = -7.0

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(algorithm_names()),
           source=st.integers(0, 63),
           ranges=st.lists(
               st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted),
               min_size=1, max_size=6))
    def test_any_range_sequence_is_the_oracle(self, service_evolving,
                                              name, source, ranges):
        weight_fn = HashWeights(max_weight=8, seed=7)
        decomposition = CommonGraphDecomposition.from_evolving(
            service_evolving)
        alg = get_algorithm(name)
        want = oracle_values(decomposition, alg, source, 0, 4, weight_fn)
        planner = MemoizingPlanner(256, weight_fn)
        for first, last in ranges:
            answer = planner.evaluate(decomposition, alg, source, first,
                                      last, epoch=0)
            assert_bit_identical(answer.values, want[first:last + 1],
                                 f"{name}:{source} ({first}, {last})")
