"""The memoizing planner must match the naive oracle bit-for-bit.

The planner owns no cache: reuse is what the caller hands it as
``held``.  Planner-level tests hand it references into earlier answers,
as the service state does with its result-cache entries; the isolation
checks (epochs, sources, algorithms never share) run through the state,
where the snapshot-reuse decision lives.
"""

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
from tests.service.conftest import valid_batch


@pytest.fixture
def decomposition(service_evolving):
    return CommonGraphDecomposition.from_evolving(service_evolving)


@pytest.fixture
def planner(weight_fn):
    return MemoizingPlanner(weight_fn)


def evaluate(planner, decomposition, algorithm, source, first, last,
             earlier=()):
    """``planner.evaluate`` handed the snapshots the ``earlier`` answers
    — ``(first, PlannedAnswer)`` pairs — hold, the later one winning, as
    the service state hands it those of its result-cache entries."""
    held = [None] * (last - first + 1)
    for start, answer in earlier:
        for offset in range(len(answer.values)):
            if first <= start + offset <= last:
                held[start + offset - first] = (answer.entry, offset)
    return planner.evaluate(decomposition, algorithm, source, first, last,
                            epoch=0, held=held)


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
        cold = evaluate(planner, decomposition, algorithm, 0, 0, last)
        warm = evaluate(planner, decomposition, algorithm, 0, 0, last,
                        [(0, cold)])
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
        earlier = evaluate(planner, decomposition, algorithm, 0, 0, 3)
        warm = evaluate(planner, decomposition, algorithm, 0, 1, 3,
                        [(0, earlier)])
        assert (warm.node_hits, warm.node_misses) == (3, 0)
        expected = oracle_values(decomposition, algorithm, 0, 1, 3,
                                 weight_fn)
        for got, want in zip(warm.values, expected):
            assert_values_equal(got, want, f"{algorithm.name} overlap")

    def test_epochs_never_share_states(self, service_state, algorithm,
                                       weight_fn):
        service_state.query(algorithm.name, 0)
        service_state.ingest(valid_batch(service_state.store))
        other = service_state.query(algorithm.name, 0, first=1, last=3)
        assert (other.epoch, other.node_hits, other.node_misses) == (1, 0, 3)
        assert_bit_identical(
            other.values,
            oracle_values(service_state.store.load(), algorithm, 0, 1, 3,
                          weight_fn), "after an ingest")

    def test_sources_never_share_states(self, service_state, algorithm):
        service_state.query(algorithm.name, 0)
        other = service_state.query(algorithm.name, 1, first=1, last=3)
        assert (other.node_hits, other.node_misses) == (0, 3)
        same = service_state.query(algorithm.name, 0, first=1, last=3)
        assert (same.node_hits, same.node_misses) == (3, 0)

    def test_algorithms_never_share_states(self, service_state, weight_fn):
        service_state.query("BFS", 0)
        other = service_state.query("SSSP", 0, first=1, last=3)
        assert (other.node_hits, other.node_misses) == (0, 3)
        assert_bit_identical(
            other.values,
            oracle_values(service_state.published.decomposition, get_algorithm("SSSP"),
                          0, 1, 3, weight_fn), "SSSP after BFS")

    def test_cached_states_are_isolated_copies(self, decomposition, planner,
                                               algorithm):
        """Mutating a returned answer must not poison what it holds."""
        last = decomposition.num_snapshots - 1
        first = evaluate(planner, decomposition, algorithm, 0, 0, last)
        for values in first.values:
            values[:] = -123.0
        again = evaluate(planner, decomposition, algorithm, 0, 0, last,
                         [(0, first)])
        assert again.node_misses == 0
        assert not any((values == -123.0).all() for values in again.values)


_BITS = st.integers(-(2 ** 63), 2 ** 63 - 1)


def _entry_arrays(entry):
    base, changes = entry.compact
    return [base, *(part for change in changes for part in change)]


class TestNodeStateCache:
    """A held snapshot is a reference into an answer held as base +
    sparse Δ."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_BITS, _BITS, st.booleans()), min_size=1, max_size=24))
    def test_round_trip_is_bit_exact(self, cells):
        """Any float64 bit pattern — NaN payloads, −0.0, denormals —
        whether or not the cell differs from the snapshot before."""
        rows = [np.array([b for b, _, _ in cells], dtype=np.int64),
                np.array([b if same else v for b, v, same in cells],
                         dtype=np.int64)]
        entry = CachedRange([row.view(np.float64) for row in rows])
        # Every snapshot is held, so no walk reads the decomposition.
        answer = MemoizingPlanner().evaluate(
            None, get_algorithm("BFS"), 5, 0, 1, epoch=0,
            held=[(entry, 0), (entry, 1)])
        assert answer.node_misses == 0
        for got, want in zip(answer.values, rows):
            assert np.array_equal(got.view(np.int64), want)

    def test_a_hit_aliases_nothing(self, decomposition, planner, weight_fn):
        alg = get_algorithm("SSSP")
        full = evaluate(planner, decomposition, alg, 0, 0, 4)
        first, second = (evaluate(planner, decomposition, alg, 0, 1, 3,
                                  [(0, full)]) for _ in range(2))
        assert second.node_misses == 0
        for row in first.values:
            row[:] = -2.0  # the caller keeps writing to what it got
        held = {id(part): part for answer in (full, first, second)
                for part in _entry_arrays(answer.entry)}
        assert not any(np.shares_memory(row, part) for row in second.values
                       for part in held.values())
        assert_bit_identical(
            second.values, oracle_values(decomposition, alg, 0, 1, 3, weight_fn),
            "second hit")

    def test_a_full_window_walk_is_held_sparsely(self):
        """LJ, 16 snapshots, one cold full-window walk: its entry holds
        the 16 snapshots in at most a quarter of 16 dense vectors."""
        weights = HashWeights(max_weight=64, seed=0)
        evolving = build_workload(
            WorkloadSpec(dataset="LJ", num_snapshots=16, batch_size=75,
                         edge_scale=1.0, seed=11), weight_fn=weights).evolving
        planner = MemoizingPlanner(weights)
        answer = planner.evaluate(
            CommonGraphDecomposition.from_evolving(evolving),
            get_algorithm("SSSP"), int(evolving.snapshot_edges(0).arrays()[0][0]),
            0, 15, epoch=0)
        held = {id(part): part for part in _entry_arrays(answer.entry)}
        assert answer.node_misses == 16
        assert (sum(part.nbytes for part in held.values())
                <= 16 * answer.values[0].nbytes / 4)


@pytest.mark.service
class TestSnapshotCache:
    """Answered snapshots are reused, not walk nodes."""

    def test_a_nested_range_needs_no_walk(self, decomposition, planner,
                                          algorithm, weight_fn, kernel_calls):
        last = decomposition.num_snapshots - 1
        full = evaluate(planner, decomposition, algorithm, 0, 0, last)
        assert kernel_calls["static_compute"] == 1
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))
        nested = evaluate(planner, decomposition, algorithm, 0, 1, last - 1,
                          [(0, full)])
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
        earlier = [(first, evaluate(planner, decomposition, alg, 0, first,
                                    last)) for first, last in held]
        walks.clear()
        answer = evaluate(planner, decomposition, alg, 0, 0, 4, earlier)
        assert walks == [walked]
        computed = walked[1] - walked[0] + 1
        assert (answer.node_hits, answer.node_misses) == (5 - computed,
                                                          computed)
        assert_bit_identical(
            answer.values,
            oracle_values(decomposition, alg, 0, 0, 4, weight_fn),
            f"held {held}")

    @pytest.mark.parametrize("first, last", [(0, 4), (1, 3), (2, 2)])
    def test_a_held_root_spares_the_static_convergence(
        self, decomposition, planner, algorithm, weight_fn, kernel_calls,
        first, last
    ):
        """A walk reports the common-graph values it started from; handed
        back, they replace its static convergence, read and never
        written, and the answer is the same bit for bit."""
        cold = planner.evaluate(decomposition, algorithm, 1, first, last,
                                epoch=0)
        assert_bit_identical(
            [cold.root], [engine.static_compute(
                decomposition.common_csr(weight_fn), algorithm, 1).values],
            "root")
        kept = cold.root.copy()
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))
        warm = planner.evaluate(decomposition, algorithm, 1, first, last,
                                epoch=0, root=kept)
        assert kernel_calls["static_compute"] == 0
        assert warm.root is kept
        assert_bit_identical([kept], [cold.root], "the held root")
        assert_bit_identical(warm.values, cold.values, f"{first}..{last}")
        held = evaluate(planner, decomposition, algorithm, 1, first, last,
                        [(first, cold)])
        assert held.root is None  # no walk ran

    def test_every_snapshot_points_into_the_answer_entry(self, decomposition,
                                                         planner):
        """The entry holds each snapshot at its offset, so a later range
        reads any of them from it."""
        answer = evaluate(planner, decomposition, get_algorithm("BFS"), 3,
                          0, 4)
        assert_bit_identical(answer.entry.rows(), answer.values, "entry")
        nested = evaluate(planner, decomposition, get_algorithm("BFS"), 3,
                          1, 3, [(0, answer)])
        assert nested.node_misses == 0
        assert_bit_identical(nested.values, answer.values[1:4], "nested")

    def test_a_scribbled_assembled_answer_does_not_poison(
        self, decomposition, planner, weight_fn
    ):
        alg = get_algorithm("SSWP")
        earlier = [(0, evaluate(planner, decomposition, alg, 1, 0, 4))]
        for _ in range(2):
            nested = evaluate(planner, decomposition, alg, 1, 1, 3, earlier)
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
        planner = MemoizingPlanner(weight_fn)
        earlier = []
        for first, last in ranges:
            answer = evaluate(planner, decomposition, alg, source, first,
                              last, earlier)
            earlier.append((first, answer))
            assert_bit_identical(answer.values, want[first:last + 1],
                                 f"{name}:{source} ({first}, {last})")
