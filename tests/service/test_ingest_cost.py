"""An ingest is O(batch) set algebra: counted, not timed.

Every ``EdgeSet.union/intersection/difference`` an ingest performs —
in the store, the state, the decomposition and the live-tip overlay —
is recorded with the size of its *smaller* operand.  A tip × tip
operation (70 K × 70 K here) anywhere on the path fails the test; a
tip × batch one is what the small-operand fast paths are for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import WorkloadSpec, build_workload
from repro.evolving.delta import DeltaBatch
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet
from repro.service import ServiceState

pytestmark = pytest.mark.service

WINDOW = 16


def _operand_sizes(monkeypatch, measure):
    """``measure(len(a), len(b))`` of every set operation, as it runs."""
    sizes = []
    for op in ("union", "intersection", "difference"):
        raw = vars(EdgeSet)[op]

        def counted(self, other, _raw=raw):
            sizes.append(measure(len(self), len(other)))
            return _raw(self, other)

        # The operators (``__or__ = union``) alias the function object.
        for name, value in list(vars(EdgeSet).items()):
            if value is raw:
                monkeypatch.setattr(EdgeSet, name, counted)
    return sizes


@pytest.fixture
def smaller_operands(monkeypatch):
    """Sizes of the smaller operand of every set operation, as it runs."""
    return _operand_sizes(monkeypatch, min)


@pytest.fixture
def larger_operands(monkeypatch):
    """Sizes of the larger operand of every set operation, as it runs."""
    return _operand_sizes(monkeypatch, max)


def test_one_ingest_runs_no_tip_sized_set_operation(tmp_path,
                                                    smaller_operands):
    evolving = build_workload(WorkloadSpec(
        dataset="LJ", num_snapshots=WINDOW, batch_size=75, edge_scale=1.0,
        seed=11)).evolving
    store = SnapshotStore.create(tmp_path / "store", evolving)
    state = ServiceState(store, window=WINDOW)
    try:
        rng = np.random.default_rng(5)
        tip = evolving.snapshot_edges(WINDOW - 1)
        gone = tip.codes[rng.choice(len(tip), size=37, replace=False)]
        fresh = EdgeSet.from_arrays(rng.integers(0, 2048, 64),
                                    rng.integers(2048, 4096, 64)) - tip
        # Pending live-tip churn, so the ingest folds first: an edge
        # inserted and deleted again, a tip edge deleted and reinserted,
        # and one net update of each kind.
        new, newer = list(fresh)[:2]
        old, older = EdgeSet(gone[:2])
        for kind, edge in (("insert", new), ("delete", new),
                           ("delete", old), ("insert", old),
                           ("insert", newer), ("delete", older)):
            state.update(kind, *edge)
        batch = DeltaBatch(additions=EdgeSet(fresh.codes[2:42]),
                           deletions=EdgeSet(gone[2:]))
        del smaller_operands[:]
        receipt = state.ingest(batch)
    finally:
        state.close()
    assert state.published.resyncs == 0
    assert receipt["version"] == WINDOW + 1  # the fold, then the batch
    assert receipt["window_first"] == 2
    assert len(state.published.decomposition.snapshot_edges(WINDOW - 1)) > 60_000
    churn = sum(store.read_batch(index).size
                for index in range(store.num_batches - WINDOW,
                                   store.num_batches))
    assert smaller_operands
    assert max(smaller_operands) <= 4 * churn < 10_000, (
        f"a set operation with a {max(smaller_operands)}-edge smaller "
        f"operand on the ingest path (window churn {churn})"
    )


def test_status_runs_no_tip_sized_set_operation(tmp_path, larger_operands):
    """``status()`` counts the one-CSR-per-snapshot storage from the
    decomposition's sizes: no snapshot is materialised, so no set
    operation touches the tip-sized common graph.  (Each such union has
    a small surplus as its smaller operand, but it copies the common
    graph.)"""
    evolving = build_workload(WorkloadSpec(
        dataset="LJ", num_snapshots=WINDOW, batch_size=75, edge_scale=1.0,
        seed=11)).evolving
    state = ServiceState(SnapshotStore.create(tmp_path / "store", evolving),
                         window=WINDOW)
    decomposition = state.published.decomposition
    assert len(decomposition.common) > 60_000
    del larger_operands[:]
    payload = state.status()
    assert max(larger_operands, default=0) < 10_000
    assert payload["snapshot_storage_edges"] == sum(
        len(evolving.snapshot_edges(version)) for version in range(WINDOW))
