"""ServiceState + live tip: receipts, query patching, compaction folds.

The acceptance law, asserted across every algorithm: queries at the
tip equal the naive oracle on an **equivalent materialized
snapshot** (the store's history plus the overlay's net batch as one
more real snapshot), and stay bit-identical after the log is folded
into the Triangular Grid for real.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.errors import ProtocolError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.service import ServiceState
from repro.temporal.plan import parse_specs

from tests.conftest import assert_values_equal, oracle_values, state_oracle
from tests.livetip.conftest import (
    absent_pairs,
    live_edge_set,
    present_pairs,
    reference_tip_values,
)

pytestmark = pytest.mark.livetip


def materialized_evaluator_values(state, algorithm, source):
    """Per-snapshot values from the naive oracle (static compute on
    each materialised snapshot) on the store's history *plus* the overlay's pending net batch as a
    real final snapshot — the materialization the live tip must match."""
    evolving = state.store.load()
    batches = list(evolving.batches)
    overlay = state.published.livetip
    if overlay is not None and overlay.depth:
        net, _, _ = overlay.seal()
        if net.size:
            batches.append(net)
    materialized = EvolvingGraph(
        evolving.num_vertices, evolving.snapshot_edges(0), batches,
    )
    return oracle_values(
        materialized, get_algorithm(algorithm), source,
        0, materialized.num_snapshots - 1, state.weight_fn,
    )


class TestUpdateReceipts:
    def test_insert_receipt(self, livetip_state):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        receipt = livetip_state.update("insert", u, v)
        assert receipt["kind"] == "insert"
        assert receipt["edge"] == [u, v]
        assert receipt["seq"] == 1
        assert receipt["tip_version"] == 4
        assert receipt["overlay_depth"] == 1
        assert receipt["compacted"] is False

    def test_a_receipt_reads_its_own_update(self, livetip_state,
                                            monkeypatch):
        """An ingest on another lane folds the log and lands between the
        update and its receipt: the receipt still shows the update."""
        state = livetip_state
        (u, v), (x, y), (a, b) = absent_pairs(state, 3)
        state.update("insert", u, v)

        def raced():
            worker = threading.Thread(target=state.ingest, args=(
                DeltaBatch(additions=EdgeSet.from_pairs([(a, b)])),))
            worker.start()
            worker.join(timeout=30)
            return False  # no threshold fold

        monkeypatch.setattr(state._compactor, "due", raced)
        receipt = state.update("insert", x, y)
        assert (receipt["seq"], receipt["tip_version"],
                receipt["overlay_depth"], receipt["epoch"]) == (2, 4, 2, 0)
        # The ingest folded both updates as version 5, then landed as 6.
        assert state.latest_version == 6 and state.published.epoch == 2
        assert state.published.livetip.depth == 0

    def test_updates_do_not_bump_the_epoch(self, livetip_state):
        epoch = livetip_state.published.epoch
        (u, v) = absent_pairs(livetip_state, 1)[0]
        receipt = livetip_state.update("insert", u, v)
        assert receipt["epoch"] == epoch
        assert livetip_state.published.epoch == epoch
        assert livetip_state.num_versions == 5  # no new snapshot either

    def test_edge_required_for_insert(self, livetip_state):
        with pytest.raises(ProtocolError):
            livetip_state.update("insert")

    def test_compact_refuses_an_edge(self, livetip_state):
        with pytest.raises(ProtocolError):
            livetip_state.update("compact", 0, 1)

    def test_disabled_livetip_refuses_updates(self, livetip_store,
                                              livetip_weights):
        state = ServiceState(livetip_store, weight_fn=livetip_weights,
                             livetip=False)
        try:
            with pytest.raises(ServiceError):
                state.update("insert", 0, 1)
        finally:
            state.close()


class TestQueryPatching:
    def test_tip_values_are_patched(self, livetip_state):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        answer = livetip_state.query("SSSP", 0)
        assert answer.livetip_seq == 1
        assert_values_equal(
            answer.values[-1], reference_tip_values(livetip_state, "SSSP", 0),
            "patched tip",
        )

    def test_history_is_untouched(self, livetip_state):
        before = livetip_state.query("SSSP", 0)
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        after = livetip_state.query("SSSP", 0)
        for index in range(len(before.values) - 1):
            assert_values_equal(before.values[index], after.values[index],
                                f"snapshot {index}")

    def test_non_tip_ranges_are_never_patched(self, livetip_state):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        answer = livetip_state.query("SSSP", 0, first=0, last=3)
        assert answer.livetip_seq is None

    def test_patched_values_do_not_poison_the_cache(self, livetip_state):
        (u, v), (x, y) = absent_pairs(livetip_state, 2)
        livetip_state.update("insert", u, v)
        first = livetip_state.query("SSSP", 0)
        # The cached entry is the pure-TG answer: a later query re-patches
        # from the overlay's *current* state, not the stale patch.
        livetip_state.update("insert", x, y)
        second = livetip_state.query("SSSP", 0)
        assert second.from_cache is True
        assert second.livetip_seq == 2
        assert first.livetip_seq == 1
        assert_values_equal(
            second.values[-1],
            reference_tip_values(livetip_state, "SSSP", 0),
            "re-patched cache hit",
        )

    def test_a_cold_full_walk_is_patched_too(self, livetip_state):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        answer = livetip_state.query("SSSP", 0, 0, 4)  # a miss: one walk
        assert answer.livetip_seq == 1 and not answer.from_cache
        want = state_oracle(livetip_state, "SSSP", 0, 0, 4)
        assert len(answer.values) == len(want)
        for version, (got, expected) in enumerate(zip(answer.values, want)):
            assert_values_equal(got, expected, f"walked v{version}")

    def test_temporal_point_at_tip_sees_the_overlay(self, livetip_state):
        (u, v) = present_pairs(livetip_state, 1)[0]
        livetip_state.update("delete", u, v)
        answer = livetip_state.temporal(
            "BFS", 0, parse_specs([{"mode": "point", "as_of": 4}]),
        )
        (result,) = answer.results
        assert_values_equal(
            result["values"], reference_tip_values(livetip_state, "BFS", 0),
            "temporal tip point",
        )

    def test_temporal_history_point_is_pure_tg(self, livetip_state):
        pure = livetip_state.temporal(
            "BFS", 0, parse_specs([{"mode": "point", "as_of": 2}]),
        )
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        patched = livetip_state.temporal(
            "BFS", 0, parse_specs([{"mode": "point", "as_of": 2}]),
        )
        assert_values_equal(
            pure.results[0]["values"], patched.results[0]["values"],
            "history point",
        )


class TestAcceptanceBitIdentity:
    def test_tip_matches_materialized_evaluator(self, livetip_state,
                                                algorithm):
        inserts = absent_pairs(livetip_state, 2)
        deletes = present_pairs(livetip_state, 1)
        for u, v in inserts:
            livetip_state.update("insert", u, v)
        for u, v in deletes:
            livetip_state.update("delete", u, v)
        name = algorithm.name
        expected = materialized_evaluator_values(livetip_state, name, 0)
        before = livetip_state.query(name, 0)
        assert before.livetip_seq == 3
        assert_values_equal(before.values[-1], expected[-1],
                            f"{name} pre-compaction tip")
        # Fold the log into a real TG column: the same question must
        # produce the same bits, now answered by the grid itself.
        receipt = livetip_state.compact_tip()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 3
        assert receipt["overlay_depth"] == 0
        after = livetip_state.query(name, 0, first=5, last=5)
        assert after.livetip_seq is None
        assert_values_equal(after.values[0], expected[-1],
                            f"{name} post-compaction tip")


class TestTipColumnRepair:
    """A patched query starts from the walk's own tip column:
    safe net deletions cost no static compute, an unsafe one costs one."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import repro.livetip.overlay as module

        calls = []
        original = module.static_compute

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "static_compute", counting)
        return calls

    @staticmethod
    def deletions_by_safety(state):
        """Present tip edges split into (safe, unsafe) for BFS from 0."""
        alg = get_algorithm("BFS")
        values = reference_tip_values(state, "BFS", 0)
        safe, unsafe = [], []
        for u, v in present_pairs(state, len(live_edge_set(state))):
            weight = state.weight_fn(np.asarray([u]), np.asarray([v]))
            proposal = alg.proposals(values[[u]], weight)[0]
            (unsafe if proposal == values[v] else safe).append((u, v))
        return safe, unsafe

    def test_safe_deletions_compute_nothing(self, livetip_state, counted):
        safe, _ = self.deletions_by_safety(livetip_state)
        assert len(safe) >= 2
        for u, v in safe[:2]:
            livetip_state.update("delete", u, v)
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        answer = livetip_state.query("BFS", 0)
        assert answer.livetip_seq == 3
        assert counted == []
        assert_values_equal(answer.values[-1],
                            reference_tip_values(livetip_state, "BFS", 0),
                            "tg repair")

    def test_one_unsafe_deletion_computes_once(self, livetip_state, counted):
        safe, unsafe = self.deletions_by_safety(livetip_state)
        livetip_state.update("delete", *safe[0])
        livetip_state.update("delete", *unsafe[0])
        answer = livetip_state.query("BFS", 0)
        assert len(counted) == 1
        assert_values_equal(answer.values[-1],
                            reference_tip_values(livetip_state, "BFS", 0),
                            "fallback")


class TestCompactionThroughTheState:
    def test_threshold_fold_fires_inline(self, livetip_store,
                                         livetip_weights):
        state = ServiceState(livetip_store, weight_fn=livetip_weights,
                             livetip_max_updates=3)
        try:
            edges = absent_pairs(state, 3)
            receipts = [state.update("insert", u, v) for u, v in edges]
            assert [r["compacted"] for r in receipts] == [False, False, True]
            final = receipts[-1]
            assert final["updates_folded"] == 3
            assert final["tip_version"] == 5  # one new TG column
            assert final["overlay_depth"] == 0
            assert state.num_versions == 6
            assert state.published.epoch == 1
        finally:
            state.close()

    def test_net_zero_fold_collapses_without_a_version(self, livetip_state):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        livetip_state.update("insert", u, v)
        livetip_state.update("delete", u, v)
        receipt = livetip_state.compact_tip()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert receipt["tip_version"] == 4  # no append
        assert livetip_state.num_versions == 5
        assert livetip_state.published.epoch == 0

    def test_clean_compact_is_a_noop(self, livetip_state):
        receipt = livetip_state.compact_tip()
        assert receipt["compacted"] is False
        assert receipt["updates_folded"] == 0

    def test_ingest_flushes_pending_updates_first(self, livetip_state):
        (u, v), (x, y) = absent_pairs(livetip_state, 2)
        livetip_state.update("insert", u, v)
        livetip_state.update("insert", x, y)
        # A batch valid against the *live* tip (the flush lands first).
        (a, b) = absent_pairs(livetip_state, 1)[0]
        receipt = livetip_state.ingest(DeltaBatch(
            additions=EdgeSet.from_pairs([(a, b)]),
            deletions=EdgeSet.empty(),
        ))
        # Strictly consecutive: flush folded to version 5, batch is 6.
        assert receipt["version"] == 6
        assert livetip_state.published.livetip.depth == 0
        assert livetip_state.published.livetip.tip_version == 6
        tip = livetip_state.store.load().snapshot_edges(-1)
        for edge in ((u, v), (x, y), (a, b)):
            assert edge in tip

    def test_updates_build_no_graph_across_an_ingest_and_a_fold(
            self, livetip_store, livetip_weights, monkeypatch):
        # An update only validates and logs: neither the first update
        # after a client ingest nor one that triggers a fold (nor the
        # first after it) builds a CSR.
        state = ServiceState(livetip_store, weight_fn=livetip_weights,
                             livetip_max_updates=3)
        try:
            state.update("insert", *absent_pairs(state, 1)[0])
            state.ingest(DeltaBatch(
                additions=EdgeSet.from_pairs(absent_pairs(state, 1)),
                deletions=EdgeSet.empty(),
            ))
            builds = []
            for name in ("from_edge_set", "from_edges"):
                def counting(cls, *args, _name=name,
                             _build=getattr(CSRGraph, name).__func__,
                             **kwargs):
                    builds.append(_name)
                    return _build(cls, *args, **kwargs)

                monkeypatch.setattr(CSRGraph, name, classmethod(counting))
            receipts = [state.update("insert", u, v)
                        for u, v in absent_pairs(state, 4)]
            assert [r["compacted"] for r in receipts] == [
                False, False, True, False]
            assert builds == []
        finally:
            state.close()

    def test_receipt_versions_stay_consecutive(self, livetip_store,
                                               livetip_weights):
        state = ServiceState(livetip_store, weight_fn=livetip_weights,
                             livetip_max_updates=2)
        try:
            versions = [state.latest_version]
            for _ in range(3):
                for u, v in absent_pairs(state, 2):
                    receipt = state.update("insert", u, v)
                versions.append(receipt["tip_version"])
            assert versions == [4, 5, 6, 7]
            assert state.store.load().num_snapshots == 8
        finally:
            state.close()


class TestStatusBlock:
    def test_before_first_update(self, livetip_state):
        block = livetip_state.status()["livetip"]
        assert block["enabled"] is True
        assert block["overlay_depth"] == 0
        assert block["updates_total"] == 0
        assert block["compactions"] == 0

    def test_after_updates_and_a_fold(self, livetip_state):
        (u, v), (x, y) = absent_pairs(livetip_state, 2)
        livetip_state.update("insert", u, v)
        livetip_state.compact_tip()
        livetip_state.update("insert", x, y)
        block = livetip_state.status()["livetip"]
        assert block["tip_version"] == 5
        assert block["overlay_depth"] == 1
        assert block["updates_total"] == 2
        assert block["update_counts"] == {"insert": 2, "delete": 0}
        assert block["compactions"] == 1
        assert block["updates_folded"] == 1
        assert block["last_compaction_version"] == 5
        assert block["max_updates"] == 64
