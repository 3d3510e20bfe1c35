"""ServiceState: incremental ingestion, window sliding, epochs, caching."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.core import results
from repro.core.common import CommonGraphDecomposition
from repro.errors import AlgorithmError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, decode_edges
from repro.graph.generators import rmat_edges
from repro.graph.weights import HashWeights
from repro.service import ServiceState
from repro.service.state import QueryAnswer
from repro.service.cache import CachedRange
from repro.service.status import store_summary

from tests.conftest import assert_values_equal, state_oracle
from tests.helpers import reference_static_compute
from tests.service.conftest import answer_entries, seeded_answer, valid_batch


def assert_decompositions_equal(a, b, context=""):
    __tracebackhide__ = True
    assert a.num_vertices == b.num_vertices, context
    assert a.num_snapshots == b.num_snapshots, context
    assert a.common == b.common, f"{context}: common graphs differ"
    for index, (sa, sb) in enumerate(zip(a.surpluses, b.surpluses)):
        assert sa == sb, f"{context}: surplus {index} differs"
    n = a.num_snapshots
    for i in range(n):
        for j in range(i, n):
            assert a.interval_surplus(i, j) == b.interval_surplus(i, j), (
                f"{context}: interval surplus ({i}, {j}) differs"
            )


class TestIncrementalIngestion:
    def test_ingest_matches_from_scratch_rebuild(self, service_state):
        """After each ingest the incrementally-extended decomposition is
        indistinguishable from one rebuilt from the whole store."""
        for round_no in range(2):
            service_state.ingest(
                valid_batch(service_state.store, n_add=3, n_del=2)
            )
            rebuilt = CommonGraphDecomposition.from_evolving(
                service_state.store.load()
            )
            assert_decompositions_equal(
                service_state.published.decomposition, rebuilt,
                f"after ingest {round_no}",
            )

    def test_ingest_receipt(self, service_state):
        before = service_state.latest_version
        receipt = service_state.ingest(valid_batch(service_state.store))
        assert receipt["version"] == before + 1
        assert receipt["epoch"] == 1
        assert receipt["window_last"] == before + 1

    @pytest.mark.parametrize("thread", ["other"])
    def test_a_receipt_names_its_own_batch(self, service_state, thread,
                                           monkeypatch):
        """A fold started on another thread while the batch is being
        appended waits for the batch's extension, so it lands after the
        receipt's value and does not move the receipt."""
        state = service_state
        tip = state.store.load().snapshot_edges(-1)
        (a, b), (u, v) = [
            (x, y) for x in range(4) for y in range(64)
            if x != y and (x, y) not in tip][:2]
        workers = []

        def fold():
            state.update("insert", u, v)
            state.compact_tip()

        def append(batch, _raw=state.store.append):
            index = _raw(batch)
            if index == 4:  # the ingested batch, not the fold's
                workers.append(threading.Thread(target=fold, name=thread))
                workers[0].start()
            return index

        monkeypatch.setattr(state.store, "append", append)
        receipt = state.ingest(DeltaBatch(
            additions=EdgeSet.from_pairs([(a, b)])))
        workers[0].join(timeout=30)
        assert not workers[0].is_alive()
        assert receipt == {"version": 5, "epoch": 1, "window_first": 0,
                           "window_last": 5}
        assert state.latest_version == 6  # the fold landed after it
        assert state.published.epoch == 2

    def test_epoch_bumps_per_ingest(self, service_state):
        assert service_state.published.epoch == 0
        service_state.ingest(valid_batch(service_state.store))
        service_state.ingest(valid_batch(service_state.store))
        assert service_state.published.epoch == 2
        assert service_state.status()["ingests"] == 2

    def test_external_append_through_store_is_observed(
        self, service_store, service_weights
    ):
        """Another handle on the same directory (another process, say)
        appends behind the state's back.  The state's next ingest lands
        on top of it, sees the gap and rebuilds from the store: the
        receipt is consecutive and the window equals the store's."""
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            other = SnapshotStore(service_store.directory)
            other.append(valid_batch(other))
            assert state.latest_version == 4  # not followed at once
            receipt = state.ingest(valid_batch(other))
            assert state.published.resyncs == 1
            assert receipt == {"version": 6, "epoch": 1, "window_first": 4,
                               "window_last": 6}
            rebuilt = CommonGraphDecomposition.from_evolving(
                service_store.load()).restrict(4, 6)
            assert_decompositions_equal(state.published.decomposition,
                                        rebuilt, "after the foreign append")
            answer = state.query("BFS", 0)
            want = state_oracle(state, "BFS", 0, answer.first, answer.last)
            assert len(answer.values) == len(want) == 3
            for got, expected in zip(answer.values, want):
                assert_values_equal(got, expected, "post-resync answer")
        finally:
            state.close()


class TestWindow:
    def test_window_restricts_initial_decomposition(self, service_store,
                                                    service_weights):
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            assert state.published.decomposition.num_snapshots == 3
            assert state.published.base == 2
            assert state.latest_version == 4
            rebuilt = CommonGraphDecomposition.from_evolving(
                service_store.load()
            ).restrict(2, 4)
            assert_decompositions_equal(state.published.decomposition,
                                        rebuilt)
        finally:
            state.close()

    def test_window_slides_on_ingest(self, service_store, service_weights):
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            state.ingest(valid_batch(service_store))
            assert state.published.decomposition.num_snapshots == 3
            assert state.published.base == 3
            assert state.latest_version == 5
            rebuilt = CommonGraphDecomposition.from_evolving(
                service_store.load()
            ).restrict(3, 5)
            assert_decompositions_equal(state.published.decomposition,
                                        rebuilt,
                                        "slid window")
        finally:
            state.close()

    def test_query_outside_window_refused(self, service_store,
                                          service_weights):
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            with pytest.raises(ServiceError, match="outside the window"):
                state.query("BFS", 0, first=0, last=1)
            # Absolute versions inside the window still work.
            answer = state.query("BFS", 0, first=3, last=4)
            assert (answer.first, answer.last) == (3, 4)
        finally:
            state.close()

    def test_window_must_be_positive(self, service_store):
        with pytest.raises(ServiceError):
            ServiceState(service_store, window=0)


class TestResync:
    def test_failed_incremental_extension_resyncs_from_store(
        self, service_state, monkeypatch
    ):
        """The store notifies *after* the append is durable, so a
        failing incremental extension must not leave the state silently
        behind the store — it rebuilds from the store instead."""

        def boom(self, batch, drop):
            raise RuntimeError("injected extension failure")

        monkeypatch.setattr(CommonGraphDecomposition, "extended", boom)
        receipt = service_state.ingest(valid_batch(service_state.store))
        monkeypatch.undo()
        assert service_state.published.resyncs == 1
        assert receipt["epoch"] == 1
        assert receipt["version"] == 5
        rebuilt = CommonGraphDecomposition.from_evolving(
            service_state.store.load()
        )
        assert_decompositions_equal(
            service_state.published.decomposition, rebuilt, "after resync"
        )
        answer = service_state.query("BFS", 0)
        want = state_oracle(service_state, "BFS", 0, answer.first,
                            answer.last)
        assert len(answer.values) == len(want)
        for got, expected in zip(answer.values, want):
            assert_values_equal(got, expected, "post-resync answer")

    def test_out_of_order_notification_resyncs_instead_of_extending(
        self, service_store, service_weights
    ):
        """``_apply_append`` is told the store index of the batch it
        extends by.  A batch that is not the next version's (another
        process appended in between) must not extend, even when it
        would apply cleanly to the state's tip."""
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            batch = valid_batch(service_store)
            next_index = state.latest_version
            # Applies cleanly to the state's tip, but claims to be the
            # batch after the next one.
            window = state.published.decomposition
            assert window.extended(batch, 1).num_snapshots == 3
            with state._appending:
                state._apply_append(next_index + 1, batch)
            assert state.published.resyncs == 1
            assert state.published.epoch == 1
            n = service_store.num_snapshots
            assert (state.published.base,
                    state.latest_version) == (n - 3, n - 1)
            rebuilt = CommonGraphDecomposition.from_evolving(
                service_store.load()
            ).restrict(n - 3, n - 1)
            assert_decompositions_equal(state.published.decomposition,
                                        rebuilt,
                                        "after the out-of-order batch")
            # The right index still extends incrementally.
            state.ingest(batch)
            assert state.published.resyncs == 1
            assert state.latest_version == n
        finally:
            state.close()

    def test_a_foreign_append_of_a_pending_insert_resyncs_before_the_fold(
            self, service_store):
        """Another handle appends the edge a pending update inserts.  The
        next fold must seal against the store's tip, not re-add the
        edge: both ingests land, consecutively, and the update drops
        out because the tip already has its edge."""
        state = ServiceState(service_store, weight_fn=HashWeights(64))
        try:
            foreign = valid_batch(service_store, n_add=1, n_del=0)
            ((u,), (v,)) = (arr.tolist() for arr in
                            decode_edges(foreign.additions.codes))
            state.update("insert", u, v)
            SnapshotStore(service_store.directory).append(foreign)
            receipts = [
                state.ingest(valid_batch(SnapshotStore(service_store.directory)))
                for _ in range(2)
            ]
            assert [r["version"] for r in receipts] == [6, 7]
            assert state.published.resyncs == 1
            assert state.published.livetip.depth == 0
            assert state.latest_version == service_store.num_snapshots - 1
            for algorithm in ("BFS", "SSSP"):
                answer = state.query(algorithm, 0)
                want = state_oracle(state, algorithm, 0)
                assert len(answer.values) == len(want) == 8
                for got, expected in zip(answer.values, want):
                    assert_values_equal(got, expected, algorithm)
        finally:
            state.close()

    @pytest.mark.parametrize("fold", ["compact", "due"])
    def test_a_fold_after_a_foreign_append_resyncs_first(
            self, service_store, fold):
        """The explicit compact and an update's threshold fold follow
        the store too: the foreign batch carries the first pending
        insert, which drops out; the second stays pending."""
        state = ServiceState(service_store, weight_fn=HashWeights(64),
                             livetip_max_updates=2)
        try:
            batch = valid_batch(service_store, n_add=2, n_del=0)
            (u, x), (v, y) = (arr.tolist() for arr in
                              decode_edges(batch.additions.codes))
            state.update("insert", u, v)
            SnapshotStore(service_store.directory).append(DeltaBatch(
                additions=EdgeSet.from_pairs([(u, v)]),
                deletions=EdgeSet.from_pairs([])))
            if fold == "compact":
                receipt = state.compact_tip()
                depth = 0
            else:
                receipt = state.update("insert", x, y)
                depth = 1
            assert receipt["compacted"] is False
            assert state.published.livetip.depth == depth
            assert state.published.resyncs == 1
            assert state.latest_version == service_store.num_snapshots - 1
            answer = state.query("SSSP", 0)
            for got, expected in zip(answer.values,
                                     state_oracle(state, "SSSP", 0)):
                assert_values_equal(got, expected, fold)
        finally:
            state.close()

    def test_a_compact_after_a_foreign_append_reports_the_state_it_left(
            self, service_store):
        """A compact that does not fold reports the state's version,
        overlay depth and epoch after the resync, not the value
        published before it."""
        state = ServiceState(service_store, weight_fn=HashWeights(64))
        try:
            batch = valid_batch(service_store, n_add=1, n_del=0)
            (u,), (v,) = (arr.tolist() for arr in
                          decode_edges(batch.additions.codes))
            state.update("insert", u, v)
            SnapshotStore(service_store.directory).append(DeltaBatch(
                additions=EdgeSet.from_pairs([(u, v)]),
                deletions=EdgeSet.from_pairs([])))
            receipt = state.compact_tip()
            published = state.published
            assert receipt["compacted"] is False
            assert (receipt["tip_version"], receipt["overlay_depth"],
                    receipt["epoch"]) == (5, 0, 1)
            assert (published.livetip.tip_version, published.livetip.depth,
                    published.epoch) == (5, 0, 1)
        finally:
            state.close()

    def test_unresyncable_state_poisons_queries_until_recovery(
        self, service_state, monkeypatch
    ):
        """If even the rebuild fails, queries must fail loudly rather
        than answer from a graph that no longer matches the store."""
        batch = valid_batch(service_state.store)

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(CommonGraphDecomposition, "extended", boom)
        monkeypatch.setattr(SnapshotStore, "load", boom)
        with pytest.raises(RuntimeError):
            service_state.ingest(batch)  # durable, but the state can't follow
        with pytest.raises(ServiceError, match="out of sync"):
            service_state.query("BFS", 0)
        with pytest.raises(ServiceError, match="out of sync"):
            service_state.temporal("BFS", 0, [])
        monkeypatch.undo()
        payload = service_state.status()
        assert payload["poisoned"] is True
        assert payload["serving"] is False
        # The next successful notification resynchronises and recovers.
        service_state.ingest(valid_batch(service_state.store))
        assert service_state.published.resyncs == 1
        assert service_state.status()["poisoned"] is False
        rebuilt = CommonGraphDecomposition.from_evolving(
            service_state.store.load()
        )
        assert_decompositions_equal(
            service_state.published.decomposition, rebuilt, "after recovery"
        )
        answer = service_state.query("BFS", 0)
        want = state_oracle(service_state, "BFS", 0, answer.first,
                            answer.last)
        assert len(answer.values) == len(want)
        for got, expected in zip(answer.values, want):
            assert_values_equal(got, expected, "post-recovery answer")


class TestQueries:
    def test_values_match_offline_answer(self, service_state, algorithm):
        """The offline answer is the naive oracle on the store."""
        answer = service_state.query(algorithm.name, 0)
        offline = state_oracle(service_state, algorithm.name, 0,
                               answer.first, answer.last)
        assert len(answer.values) == len(offline)
        for version, (got, want) in enumerate(
            zip(answer.values, offline)
        ):
            assert_values_equal(got, want, f"{algorithm.name} v{version}")

    def test_second_query_served_from_result_cache(self, service_state):
        cold = service_state.query("SSSP", 0)
        warm = service_state.query("SSSP", 0)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.node_hits == warm.node_misses == 0
        for got, want in zip(warm.values, cold.values):
            assert_values_equal(got, want, "cached answer")
        assert service_state.result_cache.stats.hits == 1

    def test_cached_answer_is_a_defensive_copy(self, service_state):
        cold = service_state.query("SSSP", 0)
        planned = [row.copy() for row in cold.values]
        for scribbled in (cold, service_state.query("SSSP", 0)):
            for row in scribbled.values:
                row[:] = -1.0
            hit = service_state.query("SSSP", 0)
            assert hit.from_cache
            for got, want in zip(hit.values, planned):
                assert_values_equal(got, want, "hit after a scribble")

    def test_cache_entries_are_base_plus_sparse_changes(self, service_state):
        # A full-window-sized answer with 100 cells moving per snapshot
        # is held in under an eighth of its 16 x 4096 x 8 dense bytes.
        answer = seeded_answer()
        service_state.result_cache.put("key", CachedRange(answer))
        entry = service_state.result_cache.get("key")
        base, changes = entry.compact
        held = base.nbytes + sum(i.nbytes + v.nbytes for i, v in changes)
        assert held * 8 <= 16 * 4096 * 8
        assert entry.wire is None  # the server fills it on a reuse
        for got, want in zip(entry.rows(), answer):
            assert_values_equal(got, want, "expanded entry")

    def test_overlapping_query_reuses_node_states(self, service_state):
        service_state.query("SSSP", 0, first=0, last=3)
        warm = service_state.query("SSSP", 0, first=1, last=3)
        assert not warm.from_cache
        assert warm.node_hits > 0

    def test_ingest_invalidates_result_cache(self, service_state):
        service_state.query("SSSP", 0, first=0, last=2)
        service_state.ingest(valid_batch(service_state.store))
        answer = service_state.query("SSSP", 0, first=0, last=2)
        assert not answer.from_cache
        assert answer.epoch == 1
        # The old-epoch entries were purged eagerly, not just shadowed,
        # so none lends the new epoch a snapshot.
        assert all(key[-1] == 1 for key, _ in
                   answer_entries(service_state.result_cache))
        assert (answer.node_hits, answer.node_misses) == (0, 3)

    def test_unknown_algorithm(self, service_state):
        with pytest.raises(AlgorithmError):
            service_state.query("NotAnAlgorithm", 0)

    def test_source_out_of_range(self, service_state):
        with pytest.raises(ServiceError, match="source"):
            service_state.query("BFS", 10_000)

    def test_invalid_range(self, service_state):
        with pytest.raises(ServiceError, match="outside the window"):
            service_state.query("BFS", 0, first=3, last=1)
        with pytest.raises(ServiceError, match="outside the window"):
            service_state.query("BFS", 0, first=0, last=99)


@pytest.mark.service
class TestSnapshotCache:
    """A miss stores its answer once; later misses read its snapshots
    while the result cache holds it."""

    def test_a_cold_miss_compacts_once_and_indexes_its_entry(
        self, tmp_path, service_weights, monkeypatch
    ):
        evolving = generate_evolving_graph(
            num_vertices=64, base=rmat_edges(scale=6, num_edges=240, seed=5),
            num_snapshots=16, batch_size=8, readd_fraction=0.5, seed=11,
            name="w16")
        state = ServiceState(SnapshotStore.create(tmp_path / "w16", evolving),
                             weight_fn=service_weights)
        calls = []
        original = results.changed_cells

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(results, "changed_cells", counted)
        try:
            answer = state.query("SSSP", 0)
            assert len(calls) == 15
            ((key, entry),) = answer_entries(state.result_cache)
            assert key == answer.key()
            # A nested range reads its snapshots from that one entry.
            held = state._held_snapshots(QueryAnswer("SSSP", 0, 3, 12, 0))
            nested = state.query("SSSP", 0, first=3, last=12)
        finally:
            state.close()
        assert all(ref is entry for ref, _ in held)
        assert [offset for _, offset in held] == list(range(3, 13))
        assert (nested.node_hits, nested.node_misses) == (10, 0)
        assert {key: state.status()["node_cache"][key]
                for key in ("hits", "misses")} == {"hits": 20, "misses": 16}

    def test_an_ingest_drops_every_snapshot_reference(self, service_state):
        service_state.query("BFS", 0)
        service_state.query("SSSP", 1, first=1, last=2)
        assert len(answer_entries(service_state.result_cache)) == 2
        service_state.ingest(valid_batch(service_state.store))
        assert answer_entries(service_state.result_cache) == []
        assert service_state.result_cache.stats.invalidations == 2
        answer = service_state.query("BFS", 0, first=0, last=1)
        assert (answer.node_hits, answer.node_misses) == (0, 2)
        assert {key: service_state.status()["node_cache"][key]
                for key in ("hits", "misses")} == {"hits": 0, "misses": 9}

    def test_an_evicted_entry_is_gone_for_its_snapshots(
        self, service_store, service_weights
    ):
        """The result cache's one bound limits every answer kept: an
        evicted entry lends no snapshot to a later miss."""
        state = ServiceState(service_store, weight_fn=service_weights,
                             result_cache_entries=1)
        try:
            state.query("BFS", 0)
            kept = state.query("BFS", 1)  # evicts BFS:0 from the result cache
            # With one slot, each answer also evicts its query's root.
            assert state.result_cache.stats.evictions == 3
            assert [key for key, _ in answer_entries(state.result_cache)] \
                == [kept.key()]
            nested = state.query("BFS", 0, first=1, last=3)
            offline = state_oracle(state, "BFS", 0, first=1, last=3)
        finally:
            state.close()
        assert (nested.from_cache, nested.node_hits,
                nested.node_misses) == (False, 0, 3)
        assert len(nested.values) == len(offline)
        for got, want in zip(nested.values, offline):
            assert_values_equal(got, want, "walk after an eviction")

    def test_a_held_tip_range_is_patched_and_caches_no_patch(
        self, service_state
    ):
        full = service_state.query("SSSP", 0)
        unpatched = [row.copy() for row in full.values]
        tip = service_state.latest_version
        tip_edges = service_state.published.decomposition.snapshot_edges(tip)
        present = set(zip(*(a.tolist() for a in decode_edges(tip_edges.codes))))
        # The vertex farthest from the source that it has no edge to: an
        # insert of (0, v) moves v, so the patch is visible.
        v = max((x for x in range(1, 64) if (0, x) not in present),
                key=lambda x: unpatched[-1][x])
        assert unpatched[-1][v] > 8  # above every HashWeights(8) edge
        service_state.update("insert", 0, v)

        answer = service_state.query("SSSP", 0, first=2, last=tip)
        assert (answer.from_cache, answer.node_hits,
                answer.node_misses) == (False, 3, 0)
        assert answer.livetip_seq == 1
        live = tip_edges.union(EdgeSet.from_pairs([(0, v)]))
        want = reference_static_compute(
            CSRGraph.from_edge_set(live, 64, weight_fn=service_state.weight_fn),
            get_algorithm("SSSP"), 0).values
        assert_values_equal(answer.values[-1], want, "patched tip")
        assert not np.array_equal(answer.values[-1], unpatched[-1])
        for got, held in zip(answer.values[:-1], unpatched[2:-1]):
            assert_values_equal(got, held, "history")
        # No entry holds the patched column.
        for _, entry in answer_entries(service_state.result_cache):
            assert_values_equal(entry.rows()[-1], unpatched[-1],
                                "result cache")


class TestStatus:
    def test_status_payload(self, service_state):
        service_state.query("BFS", 0)
        service_state.query("BFS", 0)
        payload = service_state.status()
        assert payload["serving"] is True
        assert payload["epoch"] == 0
        assert payload["window_first"] == 0
        assert payload["window_last"] == 4
        assert payload["num_snapshots"] == 5
        assert payload["result_cache"]["hits"] == 1
        # Entries count every slot: the answer and the query's root.
        assert payload["result_cache"]["entries"] == 2
        # The cold miss looked up its 5 snapshots; none was held.
        assert payload["node_cache"]["misses"] == 5
        assert payload["node_cache"]["hits"] == 0
        assert 0.0 <= payload["result_cache"]["hit_rate"] <= 1.0

    def test_status_reads_no_batch_file(self, service_store,
                                        service_weights, monkeypatch):
        """After ingests, a fold and window slides, ``status`` reads no
        file of the store, and reports what a summary built from the
        store reports."""
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            state.ingest(valid_batch(service_store, n_add=3, n_del=2))
            (u, v), = zip(*valid_batch(service_store, n_add=1,
                                       n_del=0).additions.arrays())
            state.update("insert", int(u), int(v))
            state.compact_tip()
            state.ingest(valid_batch(service_store, n_add=1, n_del=4))
            reads = []
            for name in ("read_batch", "load", "base_edges"):
                def counted(*args, name=name, read=getattr(SnapshotStore,
                                                           name)):
                    reads.append(name)
                    return read(*args)

                monkeypatch.setattr(SnapshotStore, name, counted)
            payload = state.status()
            monkeypatch.undo()
            assert reads == []
            assert (payload["window_first"], payload["window_last"]) == (5, 7)
            want = store_summary(
                service_store, decomposition=state.published.decomposition)
            assert {key: payload[key] for key in want} == want
            assert payload["updates_total"] > 0
        finally:
            state.close()

    def test_versions(self, service_state):
        assert service_state.num_versions == 5
        assert service_state.latest_version == 4
