"""Fixtures for the query-service tests: a small store and a live state."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.evolving.delta import DeltaBatch
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet, decode_edges
from repro.graph.generators import rmat_edges
from repro.graph.weights import HashWeights
from repro.service import ServiceState
from repro.service.cache import CachedRange


def valid_batch(store, n_add: int = 2, n_del: int = 1) -> DeltaBatch:
    """A batch that is well-formed against the store's current tip.

    ``append`` is strict — additions must be absent from the tip and
    deletions present — so tests derive their edges from the tip
    instead of hard-coding pairs.
    """
    evolving = store.load()
    tip = evolving.snapshot_edges(evolving.num_snapshots - 1)
    present = set(zip(*(arr.tolist() for arr in decode_edges(tip.codes))))
    num_vertices = store.num_vertices
    additions = []
    for u in range(num_vertices):
        for v in range(num_vertices):
            if len(additions) == n_add:
                break
            if u != v and (u, v) not in present:
                additions.append((u, v))
        if len(additions) == n_add:
            break
    deletions = sorted(present)[:n_del]
    return DeltaBatch(
        additions=EdgeSet.from_pairs(additions),
        deletions=EdgeSet.from_pairs(deletions),
    )


def answer_entries(cache):
    """The ``(key, entry)`` pairs of the answers ``cache`` holds, least
    recently used first; a result cache holds the queries' roots too."""
    return [(key, entry) for key, entry in cache.items()
            if isinstance(entry, CachedRange)]


def wait_until(condition, timeout=30.0):
    """Poll ``condition()`` from a test thread until it holds."""
    stop = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < stop, "condition never became true"
        time.sleep(0.005)


def seeded_answer(snapshots=16, vertices=4096, changed=100, seed=3):
    """A full-window-sized answer: SSSP-like distances, ``changed`` cells
    moving per snapshot, a tenth of the vertices unreached."""
    rng = np.random.default_rng(seed)
    row = rng.integers(0, 64, vertices).astype(np.float64)
    row[rng.random(vertices) < 0.1] = np.inf
    rows = [row]
    for _ in range(snapshots - 1):
        row = row.copy()
        moved = rng.choice(vertices, changed, replace=False)
        row[moved] = np.where(np.isinf(row[moved]), 7.0, row[moved] + 1.0)
        rows.append(row)
    return rows


@pytest.fixture(scope="session")
def service_evolving():
    """A 5-snapshot evolving graph, small enough for per-test rebuilds."""
    return generate_evolving_graph(
        num_vertices=64,
        base=rmat_edges(scale=6, num_edges=240, seed=5),
        num_snapshots=5,
        batch_size=16,
        readd_fraction=0.5,
        seed=11,
        name="svc",
    )


@pytest.fixture
def service_store(tmp_path, service_evolving):
    return SnapshotStore.create(tmp_path / "store", service_evolving)


@pytest.fixture
def service_weights():
    return HashWeights(max_weight=8, seed=7)


@pytest.fixture
def service_state(service_store, service_weights):
    state = ServiceState(service_store, weight_fn=service_weights)
    yield state
    state.close()
