"""LiveTipOverlay unit tests: validation, repair exactness, compaction
protocol, and hypothesis-driven interleavings against a from-scratch
oracle.

The load-bearing invariant: values a capture resolves to are
**bit-identical** to ``static_compute`` on the materialized live edge
set, whether they came from a repair of the anchor's converged column
or a from-scratch resolve — for every algorithm, after any valid
interleaving of inserts, deletes and queries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.errors import ProtocolError
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute
from repro.livetip import LiveTipOverlay

from tests.conftest import ALL_ALGORITHMS, assert_values_equal
from tests.livetip.conftest import absent_pairs
from tests.strategies import edge_pairs

pytestmark = pytest.mark.livetip

WF = HashWeights(max_weight=8, seed=7)

#: A diamond with a tail plus a spare vertex, dense enough for deletes
#: with alternate routes and sparse enough for inserts.
TIP = EdgeSet.from_pairs(
    [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 6)]
)
N = 7


def anchor(edges: EdgeSet, n: int = N) -> CommonGraphDecomposition:
    """A one-snapshot decomposition whose tip is ``edges``."""
    return CommonGraphDecomposition.from_snapshots(n, [edges])


def make_overlay(**kwargs):
    kwargs.setdefault("weight_fn", WF)
    return LiveTipOverlay(anchor(TIP), tip_version=4, **kwargs)


def oracle(edges: EdgeSet, algorithm: str, source: int = 0) -> np.ndarray:
    graph = CSRGraph.from_edge_set(edges, N, weight_fn=WF)
    return static_compute(
        graph, get_algorithm(algorithm), source, track_parents=True,
    ).values


def resolve(overlay, algorithm: str, source: int = 0) -> np.ndarray:
    capture = overlay.capture(get_algorithm(algorithm), source)
    assert capture is not None
    return capture.resolve()


class TestValidation:
    def test_unknown_kind_rejected(self):
        overlay = make_overlay()
        with pytest.raises(ProtocolError):
            overlay.apply_update("upsert", 0, 1)

    @pytest.mark.parametrize("edge", [(-1, 0), (0, N), (N, 0)])
    def test_endpoint_out_of_range(self, edge):
        overlay = make_overlay()
        with pytest.raises(ProtocolError):
            overlay.apply_update("insert", *edge)

    def test_insert_present_edge_rejected(self):
        overlay = make_overlay()
        with pytest.raises(ProtocolError):
            overlay.apply_update("insert", 0, 1)

    def test_delete_absent_edge_rejected(self):
        overlay = make_overlay()
        with pytest.raises(ProtocolError):
            overlay.apply_update("delete", 5, 0)

    def test_refusal_leaves_overlay_untouched(self):
        # Replicas must reject identical updates identically *and*
        # cheaply: a refusal is not an absorbed update.
        overlay = make_overlay()
        with pytest.raises(ProtocolError):
            overlay.apply_update("insert", 0, 1)
        assert overlay.seq == 0
        assert overlay.depth == 0
        assert overlay.live_edges() == TIP


class TestReceipts:
    def test_receipts_are_sequential(self):
        overlay = make_overlay()
        first = overlay.apply_update("insert", 5, 0)
        second = first.apply_update("delete", 4, 5)
        assert (first.seq, first.tip_version, first.depth) == (1, 4, 1)
        assert (second.seq, second.tip_version, second.depth) == (2, 4, 2)

    def test_an_update_leaves_its_predecessor_as_it_was(self):
        overlay = make_overlay()
        successor = overlay.apply_update("insert", 5, 0)
        assert (overlay.seq, overlay.depth) == (0, 0)
        assert overlay.live_edges() == TIP
        assert overlay.capture(get_algorithm("BFS"), 0) is None
        assert successor.live_edges() == TIP | EdgeSet.from_pairs([(5, 0)])

    def test_snapshot_counts(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        overlay = overlay.apply_update("delete", 5, 0)
        snap = overlay.snapshot()
        assert snap["overlay_depth"] == 2
        assert snap["updates_total"] == 2
        assert snap["update_counts"] == {"insert": 1, "delete": 1}
        assert snap["live_edges"] == len(TIP)

    def test_clean_overlay_captures_nothing(self):
        overlay = make_overlay()
        assert overlay.capture(get_algorithm("BFS"), 0) is None


class TestRepairExactness:
    """A resolve after a further update equals scratch."""

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_untracked_resolve_equals_scratch(self, name):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 6, 5)
        live = TIP.union(EdgeSet.from_pairs([(6, 5)]))
        assert_values_equal(resolve(overlay, name), oracle(live, name),
                            f"{name} lazy resolve")

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_insert_repairs_tracked_state(self, name):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 6, 5)
        resolve(overlay, name)
        overlay = overlay.apply_update("insert", 6, 4)
        live = TIP.union(EdgeSet.from_pairs([(6, 5), (6, 4)]))
        assert_values_equal(resolve(overlay, name), oracle(live, name),
                            f"{name} insert repair")

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_delete_repairs_tracked_state(self, name):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 6, 5)
        resolve(overlay, name)
        # (1, 3) severs the shorter branch of the diamond; repair must
        # reroute 3's value through (2, 3).
        overlay = overlay.apply_update("delete", 1, 3)
        live = TIP.union(EdgeSet.from_pairs([(6, 5)])).difference(
            EdgeSet.from_pairs([(1, 3)])
        )
        assert_values_equal(resolve(overlay, name), oracle(live, name),
                            f"{name} delete repair")

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_delete_disconnects_subtree(self, name):
        # (3, 4) is the sole in-edge of 4, which feeds 5: the repaired
        # state must push unreachability down the tail.
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 6)
        resolve(overlay, name)
        overlay = overlay.apply_update("delete", 3, 4)
        live = TIP.union(EdgeSet.from_pairs([(5, 6)])).difference(
            EdgeSet.from_pairs([(3, 4)])
        )
        assert_values_equal(resolve(overlay, name), oracle(live, name),
                            f"{name} disconnect repair")


class TestAdoption:
    def test_stale_resolve_is_not_adopted(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        capture = overlay.capture(get_algorithm("BFS"), 0)
        # Moves seq past the capture.
        overlay = overlay.apply_update("insert", 5, 1)
        values = capture.resolve()
        # The capture still answers for *its* instant, not the new one.
        assert_values_equal(
            values, oracle(TIP.union(EdgeSet.from_pairs([(5, 0)])), "BFS"),
            "stale capture",
        )


class TestCompactionProtocol:
    def test_seal_is_the_net_diff(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        overlay = overlay.apply_update("delete", 4, 5)
        batch, depth, seq = overlay.seal()
        assert (depth, seq) == (2, 2)
        assert sorted(batch.additions) == [(5, 0)]
        assert sorted(batch.deletions) == [(4, 5)]

    def test_churn_cancels_in_the_seal(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        overlay = overlay.apply_update("delete", 5, 0)
        overlay = overlay.apply_update("delete", 0, 6)
        overlay = overlay.apply_update("insert", 0, 6)
        batch, depth, _ = overlay.seal()
        assert depth == 4
        assert batch.size == 0

    def test_a_churny_log_seals_to_the_set_difference(self):
        """The seal reads only the logged edges; it must still be exactly
        ``live − base`` / ``base − live``, before and after a rebase that
        keeps part of the log."""
        overlay = make_overlay()
        for kind, u, v in (("insert", 5, 0), ("delete", 5, 0),   # cancels
                           ("delete", 0, 6), ("insert", 0, 6),   # cancels
                           ("insert", 6, 2), ("delete", 3, 4),   # net
                           ("delete", 6, 2), ("insert", 6, 2)):  # net insert
            overlay = overlay.apply_update(kind, u, v)
        batch, depth, _ = overlay.seal()
        live = overlay.live_edges()
        assert depth == 8
        assert batch.additions == live - TIP == EdgeSet.from_pairs([(6, 2)])
        assert batch.deletions == TIP - live == EdgeSet.from_pairs([(3, 4)])
        # A foreign tip that already has (6, 2): its first insert is
        # satisfied and the edges that end as the tip has them drop out;
        # only the delete of (3, 4) stays logged.
        foreign = TIP | EdgeSet.from_pairs([(6, 2), (2, 5)])
        overlay = overlay.rebase_onto(anchor(foreign), tip_version=5)
        assert overlay.depth == 1
        batch, depth, _ = overlay.seal()
        live = overlay.live_edges()
        assert depth == 1
        assert batch.additions == live - foreign == EdgeSet()
        assert batch.deletions == foreign - live == EdgeSet.from_pairs([(3, 4)])

    def test_a_collapse_keeps_an_update_after_the_seal_pending(
            self, livetip_state):
        """A net-zero log clears through the state's writer; an update
        that landed after its seal stays pending, to be folded later."""
        state = livetip_state
        (u, v), (x, y) = absent_pairs(state, 2)
        state.update("insert", u, v)
        state.update("delete", u, v)
        batch, depth, _ = state.published.livetip.seal()
        assert (batch.size, depth) == (0, 2)
        state.update("insert", x, y)  # lands after the seal
        assert state._collapse() is state.published
        assert state.published.livetip.depth == 1
        state.update("delete", x, y)
        batch, depth, _ = state.published.livetip.seal()
        assert (batch.size, depth) == (0, 2)
        assert state._collapse() is state.published
        assert state.published.livetip.depth == 0
        assert state.published.livetip.seq == 4  # lifetime counter survives
        assert state.published.epoch == 0  # no append

    def test_rebase_after_own_compaction_empties_the_log(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        live = overlay.live_edges()
        overlay = overlay.rebase_onto(anchor(live), tip_version=5)
        assert overlay.tip_version == 5
        assert overlay.depth == 0
        assert overlay.live_edges() == live
        resolve_before = overlay.capture(get_algorithm("BFS"), 0)
        assert resolve_before is None  # clean overlay: the tip answers

    def test_rebase_after_foreign_append_keeps_unsatisfied_updates(self):
        overlay = make_overlay()
        overlay = overlay.apply_update("insert", 5, 0)
        overlay = overlay.apply_update("delete", 0, 6)
        # A foreign batch lands that already contains the insert but
        # not the delete: the insert is satisfied, the delete stays.
        foreign_tip = TIP.union(EdgeSet.from_pairs([(5, 0), (6, 3)]))
        overlay = overlay.rebase_onto(anchor(foreign_tip), tip_version=5)
        assert overlay.depth == 1
        expected = foreign_tip.difference(EdgeSet.from_pairs([(0, 6)]))
        assert overlay.live_edges() == expected

    def test_rebase_drops_net_zero_churn(self):
        # delete-then-reinsert composes to a no-op: weights are
        # deterministic per edge, so once the tip already shows the
        # edge nothing stays pending.
        overlay = make_overlay()
        overlay = overlay.apply_update("delete", 0, 6)
        overlay = overlay.apply_update("insert", 0, 6)
        overlay = overlay.rebase_onto(anchor(TIP), tip_version=5)
        assert overlay.depth == 0
        assert overlay.live_edges() == TIP


class TestTipColumnRepair:
    """Captures resolved from the anchor's converged column.

    On ``TIP`` plus ``(6, 4)`` and ``(5, 1)``, BFS from 0 reaches 4 via
    ``(6, 4)``, so ``(3, 4)`` and ``(5, 1)`` support no value (safe to
    delete) while ``(0, 6)`` is the only support of 6 (unsafe).
    """

    ANCHOR = TIP | EdgeSet.from_pairs([(6, 4), (5, 1)])

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count the overlay module's calls to its kernel ``name``."""
        import repro.livetip.overlay as module

        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.fixture
    def counted(self, monkeypatch):
        return self.count_calls(monkeypatch, "static_compute")

    @pytest.fixture
    def pushes(self, monkeypatch):
        return self.count_calls(monkeypatch, "incremental_additions")

    def run(self, updates, name="BFS"):
        overlay = LiveTipOverlay(anchor(self.ANCHOR), tip_version=4,
                                 weight_fn=WF)
        for kind, u, v in updates:
            overlay = overlay.apply_update(kind, u, v)
        return overlay, overlay.capture(get_algorithm(name), 0)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_tg_column_repair_equals_scratch(self, name):
        overlay, capture = self.run(
            [("delete", 5, 1), ("insert", 5, 0)], name)
        live = overlay.live_edges()
        values = capture.resolve(oracle(self.ANCHOR, name))
        assert_values_equal(values, oracle(live, name), f"{name} tg repair")

    def test_safe_deletes_call_no_static_compute(self, counted):
        overlay, capture = self.run(
            [("delete", 5, 1), ("delete", 3, 4), ("insert", 2, 5)])
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert counted == []
        assert_values_equal(values, oracle(overlay.live_edges(), "BFS"),
                            "safe repair")

    def test_unsafe_delete_falls_back_and_adopts(self, counted):
        # (0, 6) is 6's parent edge in the source's tree.
        overlay, capture = self.run([("delete", 5, 1), ("delete", 0, 6)])
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert len(counted) == 1
        assert_values_equal(values, oracle(overlay.live_edges(), "BFS"),
                            "unsafe fallback")

    def test_unsafe_delete_computes_once_per_read(self, counted):
        # No read leaves state behind for the next: each computes.
        overlay, _ = self.run([("delete", 0, 6)])
        want = oracle(overlay.live_edges(), "BFS")
        for _ in range(2):
            capture = overlay.capture(get_algorithm("BFS"), 0)
            assert_values_equal(capture.resolve(oracle(self.ANCHOR, "BFS")),
                                want, "unsafe read")
        assert len(counted) == 2

    def test_updates_after_reads_push_nothing(self, pushes):
        overlay, _ = self.run([("insert", 5, 0)])
        for name, source in (("BFS", 0), ("SSSP", 0), ("BFS", 1)):
            resolve(overlay, name, source)
        live = overlay.live_edges()
        absent = [(u, v) for u in range(N) for v in range(N)
                  if u != v and (u, v) not in live]
        for u, v in absent[:10]:
            overlay = overlay.apply_update("insert", u, v)
        assert pushes == []

    # A capture's repair reads only what it captured, so an update or a
    # rebase landing between the capture and its resolve cannot make the
    # repair inexact.
    def test_late_update_answers_the_capture_instant(self):
        overlay, capture = self.run([("delete", 5, 1)])
        at_capture = overlay.live_edges()
        # Seq moves past the capture.
        overlay = overlay.apply_update("insert", 5, 0)
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert_values_equal(values, oracle(at_capture, "BFS"),
                            "capture instant")

    def test_late_rebase_answers_the_capture_instant(self):
        overlay, capture = self.run([("insert", 5, 0)])
        at_capture = overlay.live_edges()
        overlay = overlay.rebase_onto(
            anchor(self.ANCHOR | EdgeSet.from_pairs([(2, 6)])), tip_version=5)
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert_values_equal(values, oracle(at_capture, "BFS"),
                            "capture instant")

    # The safe test runs on the values *after* the additions' push: on
    # the anchor, BFS reaches 5 only over (4, 5) (distance 3), and
    # (3, 4) supports nothing (4 is at 2 via (6, 4)).
    def test_deletion_unsupporting_after_the_push_is_repaired(self, counted):
        # (0, 5) lifts 5 to distance 1, so (4, 5) no longer supports it.
        overlay, capture = self.run([("delete", 4, 5), ("insert", 0, 5)])
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert counted == []
        assert_values_equal(values, oracle(overlay.live_edges(), "BFS"),
                            "repaired after the push")

    def test_deletion_supporting_after_the_push_falls_back(self, counted):
        # (0, 3) lifts 3 to distance 1, so (3, 4) now ties 4's value.
        overlay, capture = self.run([("delete", 3, 4), ("insert", 0, 3)])
        values = capture.resolve(oracle(self.ANCHOR, "BFS"))
        assert len(counted) == 1
        assert_values_equal(values, oracle(overlay.live_edges(), "BFS"),
                            "fallback after the push")

    @pytest.mark.parametrize("updates", [
        [("delete", 4, 5), ("insert", 0, 5)],
        [("delete", 3, 4), ("insert", 0, 3)],
    ], ids=["supported-at-anchor", "supported-after-push"])
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_push_then_safe_test_equals_scratch(self, name, updates):
        overlay, capture = self.run(updates, name)
        values = capture.resolve(oracle(self.ANCHOR, name))
        assert_values_equal(values, oracle(overlay.live_edges(), name),
                            f"{name} push, then safe test")


def check_interleaving(name, arm, spec, data):
    """Drive a random insert/delete/query interleaving against scratch.

    Queries are drawn *mid-stream*, so every resolve sees a log of a
    different depth rather than only the final one.  The ``tg`` arm
    hands every resolve the anchor's converged column (what the TG walk
    computes), so captures take the safe-delete repair when they can;
    the ``scratch`` arm hands none, so every resolve computes from
    scratch.
    """
    n, pairs = spec
    tip = EdgeSet.from_pairs(pairs)
    overlay = LiveTipOverlay(anchor(tip, n), tip_version=0, weight_fn=WF)
    alg = get_algorithm(name)
    live = set(pairs)
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]

    def scratch(edges, source):
        return static_compute(
            CSRGraph.from_edge_set(EdgeSet.from_pairs(sorted(edges)), n,
                                   weight_fn=WF),
            alg, source, track_parents=True,
        ).values

    def resolve_at(source):
        capture = overlay.capture(alg, source)
        return capture.resolve(scratch(pairs, source) if arm == "tg"
                               else None)

    steps = data.draw(st.integers(min_value=1, max_value=12), label="steps")
    for _ in range(steps):
        op = data.draw(st.sampled_from(["insert", "delete", "query"]),
                       label="op")
        if op == "query":
            if not overlay.depth:
                continue
            source = data.draw(st.integers(0, n - 1), label="source")
            assert_values_equal(resolve_at(source), scratch(live, source),
                                f"{name} mid-stream query")
            continue
        candidates = (sorted(set(possible) - live) if op == "insert"
                      else sorted(live))
        if not candidates:
            continue
        index = data.draw(st.integers(0, len(candidates) - 1), label="edge")
        u, v = candidates[index]
        overlay = overlay.apply_update(op, u, v)
        live = live | {(u, v)} if op == "insert" else live - {(u, v)}
    assert overlay.live_edges() == EdgeSet.from_pairs(sorted(live))
    if overlay.depth:
        for source in range(min(n, 3)):
            assert_values_equal(resolve_at(source), scratch(live, source),
                                f"{name} final source {source}")


@settings(max_examples=25, deadline=None)
@given(spec=edge_pairs(max_vertices=8, max_edges=20),
       data=st.data())
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_interleaved_updates_equal_scratch(name, spec, data):
    """Any valid insert/delete/query interleaving stays bit-identical."""
    check_interleaving(name, "scratch", spec, data)


@settings(max_examples=25, deadline=None)
@given(spec=edge_pairs(max_vertices=8, max_edges=20),
       data=st.data())
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_interleaved_updates_with_anchor_column_equal_scratch(name, spec,
                                                              data):
    """Same, with every resolve handed the anchor's converged column."""
    check_interleaving(name, "tg", spec, data)
