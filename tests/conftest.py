"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest
from hypothesis import settings

from repro.algorithms.registry import get_algorithm
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.generators import rmat_edges
from repro.graph.weights import HashWeights
from tests.helpers import reference_static_compute

ALL_ALGORITHMS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")

# A red property or fuzz test must replay exactly (ROADMAP aim 3): under
# CI (GitHub Actions sets ``CI``) examples are derived from the test, not
# from a random seed, and a failure prints its reproduction blob.
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Storm tests are the hardest to debug from a red X alone.  When
# REPRO_ARTIFACT_DIR is set (CI exports it), a failing chaos/fleet test
# leaves behind its Prometheus metrics dump and the tracer's recent-span
# ring buffer so the post-mortem starts from data, not guesses.
_ARTIFACT_MARKERS = ("chaos", "fleet", "livetip")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    artifact_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    if (not artifact_dir
            or report.when != "call"
            or not report.failed
            or not any(item.get_closest_marker(m) for m in _ARTIFACT_MARKERS)):
        return
    from repro import obs

    runtime = obs.current()
    if runtime is None:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", item.nodeid)
    try:
        with open(os.path.join(artifact_dir, f"{stem}.prom"), "w") as fh:
            fh.write(runtime.registry.render_prometheus())
        with open(os.path.join(artifact_dir,
                               f"{stem}.trace.jsonl"), "w") as fh:
            for span in runtime.tracer.recent():
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    except OSError:
        pass  # artifact capture must never mask the real failure


@pytest.fixture(params=ALL_ALGORITHMS)
def algorithm(request):
    """Each of the five paper algorithms in turn."""
    return get_algorithm(request.param)


@pytest.fixture
def weight_fn():
    """Small deterministic weights so ties and caps are exercised."""
    return HashWeights(max_weight=8, seed=7)


@pytest.fixture
def diamond_edges():
    """A 6-vertex diamond-with-tail used by many engine tests.

    0 -> 1 -> 3 -> 4 -> 5
    0 -> 2 -> 3
    """
    return EdgeSet.from_pairs([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])


@pytest.fixture
def diamond_csr(diamond_edges, weight_fn):
    return CSRGraph.from_edge_set(diamond_edges, 6, weight_fn=weight_fn)


@pytest.fixture(scope="session")
def small_rmat():
    """A small RMAT edge set shared across integration tests."""
    return rmat_edges(scale=8, num_edges=1500, seed=5)


@pytest.fixture(scope="session")
def small_evolving(small_rmat):
    """An 8-snapshot evolving RMAT graph (batch 60, re-adds enabled)."""
    return generate_evolving_graph(
        num_vertices=1 << 8,
        base=small_rmat,
        num_snapshots=8,
        batch_size=60,
        readd_fraction=0.6,
        seed=9,
        name="small",
    )


def oracle_values(snapshots, algorithm, source, first, last, weight_fn):
    """The naive oracle (ROADMAP aim 3) for snapshots ``first..last``.

    Materialise each snapshot's edge set, build its CSR, converge with
    the verbatim sparse reference round
    (:func:`tests.helpers.reference_static_compute`) — no decomposition
    walk, grid, schedule, overlay, cache, relax step, dense round or
    worklist, so it stays independent of every evaluator and kernel it
    is compared with.  ``snapshots`` is anything with ``num_vertices``
    and ``snapshot_edges(i)`` (an evolving graph or a decomposition).
    """
    return [
        reference_static_compute(
            CSRGraph.from_edge_set(
                snapshots.snapshot_edges(i), snapshots.num_vertices,
                weight_fn=weight_fn,
            ),
            algorithm, source,
        ).values
        for i in range(first, last + 1)
    ]


def state_oracle(state, algorithm, source, first=None, last=None):
    """:func:`oracle_values` of what ``state`` (a ``ServiceState``) must
    answer for absolute versions ``first..last`` (default: its window).

    History comes from the state's store; the tip, while the live-tip
    overlay is non-empty, is the overlay's live edge set.
    """
    published = state.published
    first = published.base if first is None else first
    last = published.latest if last is None else last
    alg = get_algorithm(algorithm)
    evolving = state.store.load()
    overlay = published.livetip
    if last != published.latest or overlay is None or not overlay.depth:
        return oracle_values(evolving, alg, source, first, last,
                             state.weight_fn)
    tip = EvolvingGraph(evolving.num_vertices, overlay.live_edges(), [])
    return (oracle_values(evolving, alg, source, first, last - 1,
                          state.weight_fn)
            + oracle_values(tip, alg, source, 0, 0, state.weight_fn))


def assert_values_equal(a: np.ndarray, b: np.ndarray, context: str = "") -> None:
    __tracebackhide__ = True
    if not np.array_equal(a, b):
        diff = np.flatnonzero(a != b)
        raise AssertionError(
            f"{context}: values differ at {diff[:10]} "
            f"(a={a[diff[:10]]}, b={b[diff[:10]]})"
        )
