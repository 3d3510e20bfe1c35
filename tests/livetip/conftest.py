"""Fixtures for the live-tip tests: a small store, a state, edge pools.

The graph matches the service suite's shape (64 vertices, 5 snapshots)
so numbers seen while debugging line up across suites.  Helpers derive
insert/delete candidates from the *live* edge set — the overlay's
strict validation (insert absent, delete present) makes hard-coded
pairs brittle.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, decode_edges
from repro.graph.generators import rmat_edges
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute
from repro.service import ServiceState


def edge_pairs_of(edges: EdgeSet) -> Set[Tuple[int, int]]:
    sources, targets = decode_edges(edges.codes)
    return set(zip(sources.tolist(), targets.tolist()))


def live_edge_set(state: ServiceState) -> EdgeSet:
    """The edge set tip queries answer from: overlay live edges when
    the overlay exists, the decomposition tip otherwise."""
    published = state.published
    if published.livetip is not None:
        return published.livetip.live_edges()
    decomp = published.decomposition
    return decomp.snapshot_edges(decomp.num_snapshots - 1)


def absent_pairs(state: ServiceState, k: int) -> List[Tuple[int, int]]:
    """``k`` deterministic edges valid for ``insert`` right now."""
    present = edge_pairs_of(live_edge_set(state))
    n = state.published.decomposition.num_vertices
    picked: List[Tuple[int, int]] = []
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in present:
                picked.append((u, v))
                if len(picked) == k:
                    return picked
    raise AssertionError(f"graph too dense to pick {k} absent edges")


def present_pairs(state: ServiceState, k: int) -> List[Tuple[int, int]]:
    """``k`` deterministic edges valid for ``delete`` right now."""
    picked = sorted(edge_pairs_of(live_edge_set(state)))[:k]
    assert len(picked) == k, f"tip too sparse to pick {k} present edges"
    return picked


def reference_tip_values(
    state: ServiceState, algorithm: str, source: int,
) -> np.ndarray:
    """From-scratch values on the materialized live tip (the oracle)."""
    edges = live_edge_set(state)
    graph = CSRGraph.from_edge_set(
        edges, state.published.decomposition.num_vertices,
        weight_fn=state.weight_fn,
    )
    return static_compute(
        graph, get_algorithm(algorithm), source, track_parents=True,
    ).values


@pytest.fixture(scope="session")
def livetip_evolving():
    return generate_evolving_graph(
        num_vertices=64,
        base=rmat_edges(scale=6, num_edges=240, seed=5),
        num_snapshots=5,
        batch_size=16,
        readd_fraction=0.5,
        seed=11,
        name="livetip",
    )


@pytest.fixture
def livetip_store(tmp_path, livetip_evolving):
    return SnapshotStore.create(tmp_path / "store", livetip_evolving)


@pytest.fixture
def livetip_weights():
    return HashWeights(max_weight=8, seed=7)


@pytest.fixture
def livetip_state(livetip_store, livetip_weights):
    state = ServiceState(livetip_store, weight_fn=livetip_weights)
    yield state
    state.close()
