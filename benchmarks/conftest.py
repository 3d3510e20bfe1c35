"""Shared fixtures for ``bench_service.py`` (pytest-benchmark).

A reduced scale, so the file runs in a couple of minutes.  The paper's
tables and figures are ``python -m benchmarks.paper`` (see
EXPERIMENTS.md); the regression benchmark is ``benchmarks/perf``.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.graph.weights import HashWeights

WF = HashWeights(max_weight=64, seed=0)

#: LJ at 1/5 size, 10 snapshots.
BENCH_SPEC = WorkloadSpec(
    dataset="LJ", num_snapshots=10, batch_size=60, edge_scale=0.2, seed=3
)


@pytest.fixture(scope="session")
def workload():
    return build_workload(BENCH_SPEC, weight_fn=WF)


@pytest.fixture(scope="session")
def decomposition(workload):
    return CommonGraphDecomposition.from_evolving(workload.evolving)
