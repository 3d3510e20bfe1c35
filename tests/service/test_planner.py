"""The memoizing planner must match the naive oracle bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_algorithm
from repro.bench import WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import VertexState
from repro.service import MemoizingPlanner
from repro.service.planner import node_state_cache

from tests.conftest import assert_values_equal, oracle_values


@pytest.fixture
def decomposition(service_evolving):
    return CommonGraphDecomposition.from_evolving(service_evolving)


@pytest.fixture
def planner(weight_fn):
    return MemoizingPlanner(node_state_cache(256), weight_fn)


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
        assert answer.node_hits == 0
        assert answer.node_misses > 0
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
        """A second query over an overlapping range reuses interior
        states yet returns exactly the oracle's values."""
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


def _held_bytes(cache):
    """Bytes of the distinct arrays the cache's entries hold."""
    arrays = {id(part): part for entry in cache._entries.values()
              for part in entry if isinstance(part, np.ndarray)}
    return sum(array.nbytes for array in arrays.values())


class TestNodeStateCache:
    """An entry is the walk's base (shared by reference) + sparse Δ."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_BITS, _BITS, st.booleans()), min_size=1, max_size=24))
    def test_round_trip_is_bit_exact(self, cells):
        """Any float64 bit pattern — NaN payloads, −0.0, denormals —
        whether or not the cell differs from the base."""
        base = np.array([b for b, _, _ in cells], dtype=np.int64).view(np.float64)
        bits = np.array([b if same else v for b, v, same in cells], dtype=np.int64)
        cache = node_state_cache(4)
        cache.put("k", (base, VertexState(bits.view(np.float64).copy(), source=5)))
        hit = cache.get("k")
        assert np.array_equal(hit.values.view(np.int64), bits)
        assert (hit.parents, hit.source) == (None, 5)

    def test_a_hit_aliases_nothing(self):
        base = np.array([0.0, 1.0, 2.0, 3.0])
        state = VertexState(np.array([0.0, 1.0, 5.0, 3.0]))
        cache = node_state_cache(4)
        cache.put("root", (base, VertexState(base.copy())))
        cache.put("child", (base, state))
        state.values[:] = -1.0  # the caller keeps pushing on what it stored
        first, second = cache.get("child"), cache.get("child")
        first.values[:] = -2.0
        assert second.values.tolist() == [0.0, 1.0, 5.0, 3.0]
        assert not np.shares_memory(second.values, base)
        assert cache.get("root").values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert cache.get("child").values.tolist() == [0.0, 1.0, 5.0, 3.0]

    def test_a_state_with_parents_stays_dense(self):
        state = VertexState(np.array([0.0, 4.0]), np.array([-1, 0]), source=0)
        cache = node_state_cache(4)
        cache.put("k", (np.zeros(2), state))
        state.parents[:] = 7
        hit = cache.get("k")
        assert hit.values.tolist() == [0.0, 4.0]
        assert hit.parents.tolist() == [-1, 0]

    def test_evicting_the_root_keeps_its_children_readable(self, decomposition,
                                                           weight_fn):
        alg = get_algorithm("SSSP")
        last = decomposition.num_snapshots - 1
        cache = node_state_cache(256)
        cold = MemoizingPlanner(cache, weight_fn).evaluate(
            decomposition, alg, 0, 0, last, epoch=0)
        # Exactly full: the next put evicts the root, which was stored first.
        cache.max_entries = len(cache)
        cache.put("other", (np.zeros(1), VertexState(np.ones(1))))
        assert cache.stats.evictions == 1
        assert ("SSSP", 0, 0, (0, last)) not in cache.keys()
        for version, want in enumerate(cold.values):
            hit = cache.get(("SSSP", 0, 0, (version, version)))
            assert_values_equal(hit.values, want, f"leaf {version} of an evicted root")

    def test_a_full_window_walk_is_held_sparsely(self):
        """LJ, 16 snapshots, one cold full-window walk: 31 node states
        held in at most a quarter of 31 dense vectors."""
        weights = HashWeights(max_weight=64, seed=0)
        evolving = build_workload(
            WorkloadSpec(dataset="LJ", num_snapshots=16, batch_size=75,
                         edge_scale=1.0, seed=11), weight_fn=weights).evolving
        cache = node_state_cache(1024)
        answer = MemoizingPlanner(cache, weights).evaluate(
            CommonGraphDecomposition.from_evolving(evolving),
            get_algorithm("SSSP"), int(evolving.snapshot_edges(0).arrays()[0][0]),
            0, 15, epoch=0)
        assert (answer.node_misses, len(cache)) == (31, 31)
        assert _held_bytes(cache) <= 31 * answer.values[0].nbytes / 4
