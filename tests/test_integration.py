"""Cross-system integration tests.

The load-bearing guarantee of the whole package: for any evolving graph
and any monotonic algorithm, all four evaluation strategies —
KickStarter streaming, Direct-Hop, Work-Sharing, and parallel
Direct-Hop — produce byte-identical per-snapshot results, and the work
asymmetries the paper exploits actually show up in the counters.
"""

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.metrics import evaluate_metric
from repro.analysis.trends import TrendTracker
from repro.bench.workloads import WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.parallel import ParallelDirectHop
from repro.core.triangular_grid import TriangularGrid
from repro.evolving.version_control import VersionController
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute
from repro.kickstarter.streaming import StreamingSession
from tests.conftest import ALL_ALGORITHMS, assert_values_equal, oracle_values

WF = HashWeights(max_weight=8, seed=7)


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadSpec(dataset="LJ", num_snapshots=8, batch_size=50,
                     edge_scale=0.2, seed=4),
        weight_fn=WF,
    )


@pytest.fixture(scope="module")
def decomposition(workload):
    return CommonGraphDecomposition.from_evolving(workload.evolving)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_all_strategies_agree(workload, decomposition, name):
    alg = get_algorithm(name)
    src = workload.source
    ks = StreamingSession(workload.evolving, alg, src, weight_fn=WF).run()
    dh = DirectHopEvaluator(decomposition, alg, src, weight_fn=WF).run()
    ws = WorkSharingEvaluator(decomposition, alg, src, weight_fn=WF).run()
    par = ParallelDirectHop(decomposition, alg, src, weight_fn=WF).run()
    for i in range(workload.evolving.num_snapshots):
        scratch = static_compute(
            workload.evolving.snapshot_csr(i, weight_fn=WF), alg, src
        ).values
        assert_values_equal(ks.snapshot_values[i], scratch, f"KS/{name}@{i}")
        assert_values_equal(dh.snapshot_values[i], scratch, f"DH/{name}@{i}")
        assert_values_equal(ws.snapshot_values[i], scratch, f"WS/{name}@{i}")
        assert_values_equal(par.snapshot_values[i], scratch, f"PAR/{name}@{i}")


def test_work_sharing_processes_fewer_additions(workload, decomposition):
    """The Steiner schedule shares work: fewer streamed additions."""
    alg = get_algorithm("BFS")
    dh = DirectHopEvaluator(decomposition, alg, workload.source, weight_fn=WF).run(
        keep_values=False
    )
    ws = WorkSharingEvaluator(decomposition, alg, workload.source, weight_fn=WF).run(
        keep_values=False
    )
    assert ws.additions_processed < dh.additions_processed
    grid = TriangularGrid(decomposition)
    assert dh.additions_processed == decomposition.total_direct_hop_additions()
    assert ws.additions_processed <= grid.decomposition.total_direct_hop_additions()


def test_commongraph_does_no_deletion_work(workload, decomposition):
    """Direct-Hop and Work-Sharing never trim a vertex."""
    alg = get_algorithm("SSSP")
    dh = DirectHopEvaluator(decomposition, alg, workload.source, weight_fn=WF).run(
        keep_values=False
    )
    ws = WorkSharingEvaluator(decomposition, alg, workload.source, weight_fn=WF).run(
        keep_values=False
    )
    ks = StreamingSession(
        workload.evolving, alg, workload.source, weight_fn=WF, keep_values=False
    ).run()
    assert dh.counters.vertices_trimmed == 0
    assert ws.counters.vertices_trimmed == 0
    assert ks.counters.vertices_trimmed > 0


def test_version_controller_agrees_with_evaluators(workload, decomposition):
    """Querying a version via the Table 1 API matches the evaluators."""
    vc = VersionController(workload.evolving, weight_fn=WF)
    alg = get_algorithm("SSWP")
    i = workload.evolving.num_snapshots - 1
    overlay = vc.get_version(i)
    got = static_compute(overlay, alg, workload.source).values
    want = static_compute(
        workload.evolving.snapshot_csr(i, weight_fn=WF), alg, workload.source
    ).values
    assert_values_equal(got, want)


def test_deletions_cost_more_than_additions(workload):
    """Figure 1's premise, asserted on work counters (timing-free)."""
    from repro.evolving.generator import UpdateStreamGenerator
    from repro.graph.mutable import MutableGraph
    from repro.kickstarter.deletion import trim_and_repair
    from repro.kickstarter.engine import EngineCounters, incremental_additions

    alg = get_algorithm("SSSP")
    base = workload.evolving.snapshot_edges(0)
    n = workload.num_vertices
    batch = 150

    add_counters = EngineCounters()
    gen = UpdateStreamGenerator(n, base, batch, add_fraction=1.0, seed=1,
                                protect_vertex=workload.source)
    additions = gen.next_batch().additions
    graph = MutableGraph.from_edge_set(base, n, weight_fn=WF)
    state = static_compute(graph, alg, workload.source, track_parents=True)
    graph.add_batch(additions)
    src, dst = additions.arrays()
    incremental_additions(graph, alg, state, src, dst, WF(src, dst),
                          counters=add_counters)

    del_counters = EngineCounters()
    gen = UpdateStreamGenerator(n, base, batch, add_fraction=0.0, seed=1,
                                protect_vertex=workload.source)
    deletions = gen.next_batch().deletions
    graph = MutableGraph.from_edge_set(base, n, weight_fn=WF)
    state = static_compute(graph, alg, workload.source, track_parents=True)
    graph.delete_batch(deletions)
    trim_and_repair(graph, alg, state, deletions, counters=del_counters)

    assert del_counters.edges_relaxed > add_counters.edges_relaxed


def test_snapshot_values_are_monotone_consistent(workload, decomposition):
    """Sanity: adding the surplus to Gc only improves values."""
    alg = get_algorithm("SSSP")
    dh = DirectHopEvaluator(decomposition, alg, workload.source, weight_fn=WF)
    base_values = dh.base_state().values
    result = dh.run()
    for values in result.snapshot_values:
        assert np.all(~alg.better(base_values, values))


@pytest.mark.parametrize("api", ["version-controller", "trend-tracker"])
def test_agglomerative_strategy_matches_oracle(small_evolving, api):
    """Every schedule name ``build_schedule`` knows is a usable strategy:
    the one-call APIs keep no allow-list of their own."""
    alg = get_algorithm("SSSP")
    want = oracle_values(small_evolving, alg, 3, 1, 6, WF)
    if api == "version-controller":
        result = VersionController(small_evolving, weight_fn=WF).evaluate(
            alg, 3, 1, 6, strategy="agglomerative"
        )
        for k, (got, expected) in enumerate(zip(result.snapshot_values, want)):
            assert_values_equal(got, expected, f"version {1 + k}")
    else:
        metrics = ("reach", "mean", "extreme")
        report = TrendTracker(
            small_evolving, alg, 3, weight_fn=WF, strategy="agglomerative"
        ).track(metrics=metrics, first=1, last=6)
        for metric in metrics:
            assert report.series[metric] == [
                evaluate_metric(metric, values, alg) for values in want
            ]
