"""Benchmarks for the extensions beyond the paper's evaluation.

* ``range-query``: evaluating a late 5-snapshot window from its own
  ICG (the walk rooted at grid node ``(first, last)``) vs direct hops
  from the global common graph — the paper's future-work range-query
  claim, quantified.
* ``parallel-work-sharing``: the sequential Work-Sharing schedule walk
  (whose per-edge times feed the critical-path projection).
* ``trend-tracking``: full metric-trend extraction end to end.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.trends import TrendTracker
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator

from conftest import WF

ALGORITHM = "SSSP"
ROUNDS = 3
WINDOW = 5


@pytest.mark.benchmark(group="range-query")
def test_window_rooted_range_query(benchmark, workload, decomposition):
    first = decomposition.num_snapshots - WINDOW
    last = decomposition.num_snapshots - 1
    alg = get_algorithm(ALGORITHM)

    def run():
        result = DirectHopEvaluator(
            decomposition, alg, workload.source, weight_fn=WF,
            first=first, last=last,
        ).run(keep_values=False)
        benchmark.extra_info["additions"] = result.additions_processed

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="range-query")
def test_global_rooted_range_query(benchmark, workload, decomposition):
    """The same window, but every hop starts from the global Gc."""
    from repro.core.common import CommonGraphDecomposition

    first = decomposition.num_snapshots - WINDOW
    alg = get_algorithm(ALGORITHM)
    sub = CommonGraphDecomposition(
        decomposition.num_vertices,
        decomposition.common,
        decomposition.surpluses[first:],
    )

    def run():
        result = DirectHopEvaluator(
            sub, alg, workload.source, weight_fn=WF
        ).run(keep_values=False)
        benchmark.extra_info["additions"] = result.additions_processed

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="parallel-work-sharing")
def test_sequential_work_sharing(benchmark, workload, decomposition):
    def run():
        WorkSharingEvaluator(
            decomposition, get_algorithm(ALGORITHM), workload.source,
            weight_fn=WF,
        ).run(keep_values=False)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="trend-tracking")
def test_trend_tracking(benchmark, workload):
    tracker = TrendTracker(
        workload.evolving, get_algorithm(ALGORITHM), workload.source,
        weight_fn=WF,
    )

    def run():
        tracker.track(metrics=("reach", "mean", "extreme"))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
