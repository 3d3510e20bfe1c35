"""Table 5 — parallel Direct-Hop.

Benchmarks a *single* hop (the unit whose maximum is the paper's
critical-path estimate) against the full sequential KickStarter stream.
The paper projects one to two orders of magnitude; compare
``table5-single-hop`` with ``table5-sequential-kickstarter``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.core.direct_hop import DirectHopEvaluator
from repro.graph.overlay import OverlayGraph
from repro.kickstarter.engine import incremental_additions
from repro.kickstarter.streaming import StreamingSession

from conftest import WF

ALGORITHM = "SSSP"
ROUNDS = 3


@pytest.mark.benchmark(group="table5")
def test_sequential_kickstarter(benchmark, workload):
    def run():
        StreamingSession(
            workload.evolving, get_algorithm(ALGORITHM), workload.source,
            weight_fn=WF, keep_values=False,
        ).run()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="table5")
def test_single_hop(benchmark, workload, decomposition):
    """One direct hop — the critical-path unit of the parallel estimate."""
    alg = get_algorithm(ALGORITHM)
    base_state = DirectHopEvaluator(
        decomposition, alg, workload.source, weight_fn=WF
    ).base_state()
    base_csr = decomposition.common_csr(WF)
    # The most expensive hop is the last snapshot (largest surplus).
    index = int(np.argmax([len(s) for s in decomposition.surpluses]))
    batch = decomposition.direct_hop_batch(index)
    delta_csr = decomposition.delta_csr(batch, WF)
    src, dst = batch.arrays()
    weights = WF(src, dst)

    def run():
        state = base_state.copy()
        overlay = OverlayGraph(base_csr, (delta_csr,))
        incremental_additions(overlay, alg, state, src, dst, weights)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=2)

