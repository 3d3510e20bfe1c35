"""Tests for the Direct-Hop evaluator."""

from hypothesis import given, settings

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.graph.csr import CSRGraph
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute
from tests.conftest import assert_values_equal
from tests.strategies import evolving_graphs

WF = HashWeights(max_weight=8, seed=7)


class TestDirectHop:
    def test_matches_scratch_every_snapshot(self, small_evolving, algorithm):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = DirectHopEvaluator(decomp, algorithm, 3, weight_fn=WF).run()
        assert result.strategy == "direct-hop"
        for i in range(small_evolving.num_snapshots):
            g = small_evolving.snapshot_csr(i, weight_fn=WF)
            want = static_compute(g, algorithm, 3).values
            assert_values_equal(
                result.snapshot_values[i], want, f"{algorithm.name}@{i}"
            )

    def test_bookkeeping(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = DirectHopEvaluator(decomp, get_algorithm("BFS"), 3, weight_fn=WF).run()
        n = small_evolving.num_snapshots
        assert result.stabilisations == n
        assert result.additions_processed == decomp.total_direct_hop_additions()
        # The star is one level: every hop seeded by the one sweep.
        assert result.counters.edges_relaxed >= result.additions_processed
        assert result.timer.seconds("initial_compute") > 0
        assert result.timer.seconds("incremental_add") > 0

    def test_range_hops_from_the_range_icg(self, small_evolving, algorithm):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = DirectHopEvaluator(decomp, algorithm, 3, weight_fn=WF,
                                    first=2, last=5).run()
        assert result.stabilisations == 4
        restricted = decomp.restrict(2, 5)
        assert (result.additions_processed
                == restricted.total_direct_hop_additions())
        for k, values in enumerate(result.snapshot_values):
            want = static_compute(
                small_evolving.snapshot_csr(2 + k, weight_fn=WF), algorithm, 3
            ).values
            assert_values_equal(values, want, f"{algorithm.name}@{2 + k}")

    def test_keep_values_false(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        result = DirectHopEvaluator(
            decomp, get_algorithm("BFS"), 3, weight_fn=WF
        ).run(keep_values=False)
        assert result.snapshot_values == []
        assert result.stabilisations == small_evolving.num_snapshots

    def test_base_state_is_common_graph_fixpoint(self, small_evolving):
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        evaluator = DirectHopEvaluator(decomp, get_algorithm("SSSP"), 3, weight_fn=WF)
        state = evaluator.base_state()
        want = static_compute(decomp.common_csr(WF), get_algorithm("SSSP"), 3).values
        assert_values_equal(state.values, want)

    def test_hops_do_not_interfere(self, small_evolving):
        """Each hop starts from the same base state (no cross-talk)."""
        decomp = CommonGraphDecomposition.from_evolving(small_evolving)
        alg = get_algorithm("SSWP")
        full = DirectHopEvaluator(decomp, alg, 3, weight_fn=WF).run()
        # Evaluating a single later snapshot in isolation gives the same
        # values as evaluating them all in sequence.
        single_decomp = CommonGraphDecomposition(
            decomp.num_vertices, decomp.common, [decomp.surpluses[5]]
        )
        single = DirectHopEvaluator(single_decomp, alg, 3, weight_fn=WF).run()
        assert_values_equal(single.snapshot_values[0], full.snapshot_values[5])


@settings(max_examples=20, deadline=None)
@given(evolving_graphs(max_batches=4))
def test_direct_hop_random(eg):
    alg = get_algorithm("SSNP")
    decomp = CommonGraphDecomposition.from_evolving(eg)
    result = DirectHopEvaluator(decomp, alg, 0, weight_fn=WF).run()
    for i in range(eg.num_snapshots):
        g = CSRGraph.from_edge_set(eg.snapshot_edges(i), eg.num_vertices, weight_fn=WF)
        want = static_compute(g, alg, 0).values
        assert_values_equal(result.snapshot_values[i], want, f"snapshot {i}")
