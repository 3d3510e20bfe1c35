"""Roots: a query's values on the window's common graph, kept across ingests.

A result-cache miss starts its walk from the root of its ``(algorithm,
source)`` instead of a static convergence: read as it is when it is of
the view's epoch, derived along the appends' net moves of the common
graph when it is older (trim the departed edges, add the rejoined ones),
converged afresh otherwise.  Every derived root must be bit-identical to
a static convergence on the new common CSR.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.core import engine as core_engine
from repro.core.common import CommonGraphDecomposition
from repro.evolving.delta import DeltaBatch
from repro.evolving.store import SnapshotStore
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.service import ServiceState
from repro.service import state as state_module

from tests.conftest import assert_values_equal, oracle_values
from tests.helpers import reference_static_compute
from tests.service.conftest import valid_batch

pytestmark = pytest.mark.service


def common_root(decomposition, algorithm, source, weight_fn):
    """The reference convergence on ``decomposition``'s common graph."""
    return reference_static_compute(
        CSRGraph.from_edge_set(decomposition.common,
                               decomposition.num_vertices,
                               weight_fn=weight_fn),
        algorithm, source).values


def roots_in(state):
    return {key: value for key, value in state.result_cache.items()
            if isinstance(key, state_module._RootKey)}


def step_batch(decomposition, kind, pick, removed):
    """One append of kind ``depart`` (delete common edges), ``slide``
    (re-add edges an earlier step deleted: they rejoin the common graph
    once the window slid past the snapshots lacking them) or ``fold``
    (add one fresh edge: the common graph moves only by the slide)."""
    n = decomposition.num_vertices
    tip = set(decomposition.snapshot_edges(decomposition.num_snapshots - 1))
    if kind == "depart":
        common = sorted(decomposition.common)
        gone = sorted({common[(pick + 13 * i) % len(common)]
                       for i in range(3)})
        removed.extend(gone)
        return DeltaBatch(deletions=EdgeSet.from_pairs(gone))
    back = [pair for pair in removed if pair not in tip]
    if kind == "slide" and back:
        return DeltaBatch(additions=EdgeSet.from_pairs(
            sorted({back[pick % len(back)], back[-1]})))
    absent = [(u, v) for u in range(n) for v in range(n)
              if u != v and (u, v) not in tip]
    return DeltaBatch(additions=EdgeSet.from_pairs(
        [absent[pick % len(absent)]]))


STEPS = st.lists(st.tuples(st.sampled_from(["depart", "slide", "fold"]),
                           st.integers(0, 10_000)),
                 min_size=1, max_size=state_module.ROOT_MAX_AGE + 2)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(algorithm=st.sampled_from(algorithm_names()),
       source=st.integers(0, 3), steps=STEPS, data=st.data())
def test_a_derived_root_is_the_static_one(service_evolving, service_weights,
                                          algorithm, source, steps, data):
    """Random appends (window 3, so every one slides): a root 1..k appends
    old is derived bit for bit, SSWP and SSNP take the static path, and
    the composed net moves are the two common graphs' difference."""
    alg = get_algorithm(algorithm)
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore.create(Path(tmp) / "store", service_evolving)
        state = ServiceState(store, weight_fn=service_weights, window=3)
        try:
            windows = {0: state.published.decomposition}
            removed = []
            for kind, pick in steps:
                state.ingest(step_batch(state.published.decomposition, kind,
                                        pick, removed))
                published = state.published
                windows[published.epoch] = published.decomposition
            age = data.draw(st.integers(1, len(steps)), label="age")
            then, now = windows[published.epoch - age], published.decomposition
            kept = state_module._Root(
                published.epoch - age,
                common_root(then, alg, source, service_weights))
            view = state._read_view(algorithm, source, capture=False)
            derived = state._root(view, kept)
            if age <= state_module.ROOT_MAX_AGE:
                departed, rejoined = state_module._net_moves(
                    [published.moves[epoch] for epoch in
                     range(kept.epoch + 1, published.epoch + 1)])
                assert departed == then.common - now.common
                assert rejoined == now.common - then.common
            if alg.trims_by_support and age <= state_module.ROOT_MAX_AGE:
                want = common_root(now, alg, source, service_weights)
                assert derived.view(np.int64).tolist() \
                    == want.view(np.int64).tolist()
            else:
                assert derived is None
        finally:
            state.close()


class TestRootLifetime:
    def test_a_miss_after_an_ingest_derives_its_root(
        self, service_state, service_weights, monkeypatch
    ):
        statics = []
        original = core_engine.static_compute

        def counted(*args, **kwargs):
            statics.append(args[1].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(core_engine, "static_compute", counted)
        for algorithm in ("BFS", "SSWP"):
            service_state.query(algorithm, 0)
        service_state.ingest(valid_batch(service_state.store, n_del=3))
        service_state.ingest(valid_batch(service_state.store, n_del=3))
        answers = {algorithm: service_state.query(algorithm, 0)
                   for algorithm in ("BFS", "SSWP")}
        # BFS derived its root across both appends; SSWP converged afresh.
        assert statics == ["BFS", "SSWP", "SSWP"]
        decomposition = service_state.published.decomposition
        for algorithm, answer in answers.items():
            want = oracle_values(decomposition, get_algorithm(algorithm), 0,
                                 0, decomposition.num_snapshots - 1,
                                 service_weights)
            for got, expected in zip(answer.values, want):
                assert_values_equal(got, expected, algorithm)
            root = roots_in(service_state)[
                state_module._RootKey(algorithm, 0)]
            assert root.epoch == service_state.published.epoch == 2
            assert_values_equal(root.values, common_root(
                decomposition, get_algorithm(algorithm), 0, service_weights),
                f"{algorithm} root")

    def test_roots_skip_the_epoch_purge_and_the_answer_statistics(
        self, service_state
    ):
        service_state.query("SSSP", 1, first=0, last=2)
        nested = service_state.query("SSSP", 1, first=3, last=4)
        assert not nested.from_cache
        stats = service_state.result_cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        # The root is put before the answer: the answer is the most
        # recent entry.
        keys = [key for key, _ in service_state.result_cache.items()]
        assert keys[-1] == nested.key()
        assert keys[-2] == state_module._RootKey("SSSP", 1)
        service_state.ingest(valid_batch(service_state.store))
        assert list(roots_in(service_state)) == [
            state_module._RootKey("SSSP", 1)]
        assert stats.invalidations == 2

    def test_a_rebuild_forgets_every_root_and_move(
        self, service_state, service_weights, monkeypatch
    ):
        service_state.query("BFS", 0)
        service_state.ingest(valid_batch(service_state.store))
        service_state.query("BFS", 0)
        assert service_state.published.moves and roots_in(service_state)

        def boom(self, batch, drop):
            raise RuntimeError("injected extension failure")

        monkeypatch.setattr(CommonGraphDecomposition, "extended", boom)
        service_state.ingest(valid_batch(service_state.store))
        monkeypatch.undo()
        assert service_state.published.resyncs == 1
        assert service_state.published.moves == {}
        assert roots_in(service_state) == {}
        answer = service_state.query("BFS", 0)
        decomposition = service_state.published.decomposition
        want = oracle_values(decomposition, get_algorithm("BFS"), 0, 0,
                             decomposition.num_snapshots - 1, service_weights)
        for got, expected in zip(answer.values, want):
            assert_values_equal(got, expected, "after the rebuild")

    def test_only_the_last_appends_moves_are_kept(self, service_state):
        for _ in range(state_module.ROOT_MAX_AGE + 2):
            service_state.ingest(valid_batch(service_state.store))
        epoch = service_state.published.epoch
        assert sorted(service_state.published.moves) == list(
            range(epoch - state_module.ROOT_MAX_AGE + 1, epoch + 1))


def test_roots_under_concurrent_queries_and_ingests(service_state,
                                                    service_weights):
    """Four query threads against one ingesting thread, switching every
    10 µs: each answer equals the oracle on the window of its epoch,
    whichever root — kept, derived or fresh — its walk started from."""
    windows = {0: service_state.published.decomposition}
    answers, errors = [], []

    def ingest():
        try:
            for _ in range(6):
                service_state.ingest(valid_batch(service_state.store,
                                                 n_del=2))
                published = service_state.published
                windows[published.epoch] = published.decomposition
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    def query(algorithm):
        try:
            for turn in range(24):
                answers.append(service_state.query(
                    algorithm, turn % 3, first=turn % 2))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    workers = [threading.Thread(target=ingest)] + [
        threading.Thread(target=query, args=(algorithm,))
        for algorithm in ("BFS", "SSSP", "Viterbi", "SSNP")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(answers) == 4 * 24
    assert service_state.published.base == 0  # no window: index = version
    for answer in answers:
        want = oracle_values(windows[answer.epoch],
                             get_algorithm(answer.algorithm), answer.source,
                             answer.first, answer.last, service_weights)
        for got, expected in zip(answer.values, want):
            assert_values_equal(got, expected,
                                f"{answer.key()} under concurrency")
