"""The dense round: a sync round on a ``CSRGraph`` whose frontier owns
more than ``DENSE_SHARE`` of the edges relaxes every edge in CSR order.

Under ``stabilise``'s precondition it must find exactly the improving
edges a gathered round finds: values bit for bit, ``iterations`` and
``vertices_updated`` equal, parents equal for a sorted frontier and
valid always.  The gathered reference is the same engine on an
``OverlayGraph`` of the one CSR (same edges in the same order, never a
dense round) and, where no NaN is written, the verbatim pre-relax round
of ``tests/helpers.py``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_algorithm
from repro.bench.workloads import WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.mutable import MutableGraph
from repro.graph.overlay import OverlayGraph
from repro.graph.weights import HashWeights
from repro.kickstarter import engine
from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import (
    DENSE_SHARE,
    EngineCounters,
    VertexState,
    stabilise,
    static_compute,
)
from tests.conftest import ALL_ALGORITHMS
from tests.helpers import reference_static_compute

#: Edge weights, with the ones that make NaN proposals: ``inf - inf``
#: (SSSP from an unreached vertex over a ``-inf`` edge), ``0 / 0`` and
#: ``inf / inf`` (Viterbi).  None lies in (0, 1), where a Viterbi cycle
#: would climb for a thousand rounds before it saturates at ``inf``.
_WEIGHTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, np.inf, -np.inf])


@st.composite
def dense_cases(draw):
    """``(graph, seeds)``: a multigraph with self-loops whose seed
    vertices own more than half of its edges, so the first round of a
    convergence from them is always dense, and the seeds in some order
    (sorted or not, duplicate-free)."""
    n = draw(st.integers(2, 10))
    vertex = st.integers(0, n - 1)
    seeds = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
    rest = draw(st.lists(st.tuples(vertex, vertex, _WEIGHTS), max_size=25))
    hub = draw(st.lists(st.tuples(st.sampled_from(seeds), vertex, _WEIGHTS),
                        min_size=len(rest) + 1, max_size=len(rest) + 6))
    src, dst, w = (np.array(column) for column in zip(*(rest + hub)))
    graph = CSRGraph.from_edges(src, dst, n, weights=w.astype(np.float64))
    return graph, np.array(seeds, dtype=np.int64)


def _converge(graph, alg, seeds, track_parents):
    """Pin every seed to the source value and stabilise from them (the
    precondition holds: every other vertex is at the worst value)."""
    state = VertexState.fresh(alg, graph.num_vertices, int(seeds[0]),
                              track_parents)
    state.values[seeds] = alg.source_value
    counters = EngineCounters()
    stabilise(graph, alg, state, seeds, counters, mode="sync")
    return state, counters


def _bits(values):
    return values.view(np.int64)


def _assert_parents_valid(graph, alg, state):
    """Every recorded parent has an edge to its child that proposes the
    child's value."""
    for v in np.flatnonzero(state.parents >= 0):
        u = state.parents[v]
        targets, weights = graph.neighbors(u)
        weights = weights[targets == v]
        proposals = alg.proposals(np.full(weights.shape, state.values[u]), weights)
        assert np.any(proposals == state.values[v]), (u, v)


@pytest.fixture
def dense_rounds(monkeypatch):
    """One entry per dense round the test runs."""
    calls = []
    real = engine._dense_round

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(engine, "_dense_round", counted)
    return calls


@pytest.mark.filterwarnings("ignore:invalid value encountered",
                            "ignore:divide by zero encountered")
@settings(settings.get_profile("ci"), max_examples=80)
@given(dense_cases())
@pytest.mark.parametrize("track_parents", [False, True])
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_dense_round_is_the_gathered_round(name, track_parents, case):
    graph, seeds = case
    alg = get_algorithm(name)
    owned = graph.degrees()[seeds].sum()
    assert owned > DENSE_SHARE * graph.num_edges  # the shape forces it
    dense, dense_counters = _converge(graph, alg, seeds, track_parents)
    gathered, gathered_counters = _converge(OverlayGraph(graph, ()), alg, seeds,
                                            track_parents)
    assert np.array_equal(_bits(dense.values), _bits(gathered.values))
    assert not np.isnan(dense.values).any()
    assert dense_counters.iterations == gathered_counters.iterations
    assert dense_counters.vertices_updated == gathered_counters.vertices_updated
    assert dense_counters.edges_relaxed >= gathered_counters.edges_relaxed
    if track_parents:
        _assert_parents_valid(graph, alg, dense)
        if np.all(np.diff(seeds) > 0):
            assert np.array_equal(dense.parents, gathered.parents)
    if len(seeds) == 1:
        # The verbatim round scatters every proposal: a NaN one sticks,
        # and a non-improving -0.0 may overwrite a 0.0, so it is equal
        # in value, not in bits, and only where it wrote no NaN.
        reference = reference_static_compute(graph, alg, int(seeds[0]),
                                             track_parents)
        if not np.isnan(reference.values).any():
            assert np.array_equal(dense.values, reference.values)
            if track_parents:
                assert np.array_equal(dense.parents, reference.parents)


@pytest.mark.parametrize("tagging", ["hybrid", "parent", "support"])
def test_trim_and_repair_after_a_dense_convergence(small_rmat, algorithm, tagging,
                                                   dense_rounds):
    """Parents written by dense rounds drive an exact deletion repair."""
    wf = HashWeights(max_weight=8, seed=7)
    n, source = 256, 3
    state = static_compute(CSRGraph.from_edge_set(small_rmat, n, weight_fn=wf),
                           algorithm, source, track_parents=True)
    assert dense_rounds
    deleted = EdgeSet(small_rmat.codes[::7])
    graph = MutableGraph.from_edge_set(small_rmat, n, weight_fn=wf)
    graph.delete_batch(deleted)
    trim_and_repair(graph, algorithm, state, deleted, tagging=tagging,
                    deleted_weights=wf(*deleted.arrays()))
    after = CSRGraph.from_edge_set(small_rmat - deleted, n, weight_fn=wf)
    want = static_compute(after, algorithm, source)
    assert np.array_equal(_bits(state.values), _bits(want.values))


# -- DL/50, the offline benchmark's graph ---------------------------------------

DL_WF = HashWeights(max_weight=64, seed=0)
DL_SOURCES = (0, 1, 100, 1000, 2000, 4000, 6000, 8000)
#: sha256 over the 50 snapshot rows of every (BFS, SSSP) x ``DL_SOURCES``
#: evaluation, in that order.  A kernel change must not move it.
DL_DIGEST = "ab03b63db29386f5ea6a87a4ef7407f7f84596b44a06da9f1dfe90e5c3eb2fd7"


@pytest.fixture(scope="module")
def dl50():
    evolving = build_workload(WorkloadSpec(dataset="DL", num_snapshots=50,
                                           batch_size=75, seed=11)).evolving
    return CommonGraphDecomposition.from_evolving(evolving)


@pytest.mark.parametrize("name", ["BFS", "SSSP"])
def test_dense_rounds_fire_on_the_dl50_root(dl50, name, dense_rounds):
    alg = get_algorithm(name)
    evaluator = WorkSharingEvaluator(dl50, alg, 0, weight_fn=DL_WF)
    counters = EngineCounters()
    root = evaluator.base_state(counters)
    assert dense_rounds
    assert all(graph is evaluator.base_csr for graph in dense_rounds)
    reference_counters = EngineCounters()
    reference = reference_static_compute(evaluator.base_csr, alg, 0,
                                         counters=reference_counters)
    assert np.array_equal(_bits(root.values), _bits(reference.values))
    assert counters.iterations == reference_counters.iterations
    assert counters.vertices_updated == reference_counters.vertices_updated
    assert counters.edges_relaxed > reference_counters.edges_relaxed


def test_dl50_answers_are_pinned(dl50):
    digest = hashlib.sha256()
    for name in ("BFS", "SSSP"):
        for source in DL_SOURCES:
            result = WorkSharingEvaluator(dl50, get_algorithm(name), source,
                                          weight_fn=DL_WF).run()
            for row in result.snapshot_values:
                digest.update(np.ascontiguousarray(row).tobytes())
    assert digest.hexdigest() == DL_DIGEST
