"""The memoizing planner must match the naive oracle bit-for-bit."""

from __future__ import annotations

import pytest

from repro.core.common import CommonGraphDecomposition
from repro.kickstarter.engine import VertexState
from repro.service import LRUCache, MemoizingPlanner

from tests.conftest import assert_values_equal, oracle_values


@pytest.fixture
def decomposition(service_evolving):
    return CommonGraphDecomposition.from_evolving(service_evolving)


@pytest.fixture
def planner(weight_fn):
    cache = LRUCache(256, copy_in=VertexState.copy,
                     copy_out=VertexState.copy)
    return MemoizingPlanner(cache, weight_fn)


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
