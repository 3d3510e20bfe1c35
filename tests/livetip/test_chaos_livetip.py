"""Chaos: threshold compactions racing live queries.

The race under test: a single writer streams single-edge updates
through the state while threshold folds fire inline (every 4th
update appends a real TG column, bumps the epoch and rebases the
overlay) and a pack of reader threads hammers tip queries the whole
time.

The conservation law that makes this deterministic: **folds never
change the live edge set** — they only move the TG tip underneath the
overlay.  So the sequence of live edge sets is fully determined by
the update script alone, independent of fold/query timing, and every
answer's tip vector must be bit-identical to the from-scratch values
of *some* prefix of the script.  An answer matching no prefix means a
query observed a torn tip (TG column and overlay patch from different
instants) — exactly what one published value, the overlay anchored on
its own decomposition, rules out.

A second storm races the writer lanes against each other: updates
(with threshold folds) on one thread, client ingests on another and
explicit folds on a third.  All appends take the state's one append
lock, so none can land between another's append and its extension.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.evolving.delta import DeltaBatch
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.kickstarter.engine import static_compute
from repro.service import ServiceState

from tests.conftest import assert_values_equal, state_oracle
from tests.livetip.conftest import absent_pairs, edge_pairs_of, live_edge_set

pytestmark = [pytest.mark.livetip, pytest.mark.chaos]

N_UPDATES = 24
N_READERS = 4
FOLD_EVERY = 4
ALGORITHM = "SSSP"
SOURCE = 0


def build_script(state):
    """A valid update script plus per-prefix oracle values, precomputed.

    Simulated against a model edge set, so the script is valid by
    construction and the oracle needs no mid-race computation (which
    would race the very state it checks).
    """
    live = edge_pairs_of(live_edge_set(state))
    n = state.published.decomposition.num_vertices
    alg = get_algorithm(ALGORITHM)

    def tip_values(pairs):
        graph = CSRGraph.from_edge_set(
            EdgeSet.from_pairs(sorted(pairs)), n, weight_fn=state.weight_fn,
        )
        return static_compute(graph, alg, SOURCE, track_parents=True).values

    script = []
    expected = {tip_values(live).tobytes()}
    rng = np.random.default_rng(1337)
    for step in range(N_UPDATES):
        if step % 3 == 2 and live:
            present = sorted(live)
            u, v = present[int(rng.integers(len(present)))]
            script.append(("delete", u, v))
            live = live - {(u, v)}
        else:
            absent = sorted(
                (u, v)
                for u in range(n) for v in range(n)
                if u != v and (u, v) not in live
            )
            u, v = absent[int(rng.integers(len(absent)))]
            script.append(("insert", u, v))
            live = live | {(u, v)}
        expected.add(tip_values(live).tobytes())
    return script, expected, live


def test_compaction_racing_live_queries(livetip_store, livetip_weights):
    state = ServiceState(livetip_store, weight_fn=livetip_weights,
                         livetip_max_updates=FOLD_EVERY)
    try:
        script, expected, final_live = build_script(state)
        stop = threading.Event()
        errors = []
        torn = []
        answered = [0] * N_READERS

        def reader(index):
            try:
                while not stop.is_set():
                    answer = state.query(ALGORITHM, SOURCE)
                    answered[index] += 1
                    tip = answer.values[-1].tobytes()
                    if tip not in expected:
                        torn.append(answer.livetip_seq)
            except BaseException as exc:  # any error fails the storm
                errors.append(exc)

        readers = [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(N_READERS)
        ]
        for thread in readers:
            thread.start()
        receipts = [state.update(kind, u, v) for kind, u, v in script]
        final = state.compact_tip()
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        assert not errors, errors
        assert torn == [], f"torn tips at livetip_seq={torn}"
        assert all(count > 0 for count in answered)
        # The folds really happened, inline and on schedule.
        folds = [r for r in receipts if r["compacted"]]
        assert len(folds) == N_UPDATES // FOLD_EVERY
        versions = [r["tip_version"] for r in receipts]
        assert versions == sorted(versions)
        # Everything folded: the durable tip IS the final live set.
        assert final["overlay_depth"] == 0
        store_tip = state.store.load().snapshot_edges(-1)
        assert store_tip == EdgeSet.from_pairs(sorted(final_live))
        # And the post-storm answer is the last prefix's oracle, clean.
        answer = state.query(ALGORITHM, SOURCE)
        assert answer.livetip_seq is None
        assert answer.values[-1].tobytes() in expected
    finally:
        state.close()


def test_ingests_racing_updates_and_folds(livetip_store, livetip_weights):
    """An update thread churns a few edges while an ingest thread folds
    the log and appends batches, a third thread folds the log, and
    readers query, switching every 10 µs: no update or batch is lost,
    every ingest receipt names its own batch, and the state ends equal
    to the store without a resync."""
    state = ServiceState(livetip_store, weight_fn=livetip_weights)
    try:
        pairs = absent_pairs(state, 12)
        pool, batches = pairs[:4], pairs[4:]
        tip = edge_pairs_of(live_edge_set(state))
        churned, seqs, ingested, errors = set(), [], [], []
        done = threading.Event()

        def guarded(work):
            def run():
                try:
                    work()
                except BaseException as exc:  # reported by the assertion
                    errors.append(exc)
                finally:
                    done.set()  # a failed writer stops the storm
            return threading.Thread(target=run)

        def update():
            while not done.is_set() and len(seqs) < 5000:
                edge = pool[len(seqs) % len(pool)]
                kind = "delete" if edge in churned else "insert"
                seqs.append(state.update(kind, *edge)["seq"])
                churned.symmetric_difference_update({edge})

        def ingest():
            for edge in batches:
                ingested.append(state.ingest(DeltaBatch(
                    additions=EdgeSet.from_pairs([edge]))))

        def fold():
            while not done.is_set():
                state.compact_tip()

        def read():
            while not done.is_set():
                state.query(ALGORITHM, SOURCE)
                state.status()

        threads = [guarded(update), guarded(ingest), guarded(fold)]
        threads += [guarded(read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        # A lost publish would leave the state behind the store, healed
        # only by a resync from it.
        assert state.published.resyncs == 0
        assert state.store.num_snapshots - 1 == state.latest_version
        assert seqs == list(range(1, len(seqs) + 1))
        evolving = state.store.load()
        assert len(ingested) == len(batches)
        for edge, receipt in zip(batches, ingested):
            version = receipt["version"]
            assert edge in evolving.snapshot_edges(version)
            assert edge not in evolving.snapshot_edges(version - 1)
        assert live_edge_set(state) == EdgeSet.from_pairs(
            sorted(tip | set(batches) | churned))
        decomposition = state.published.decomposition
        rebuilt = CommonGraphDecomposition.from_evolving(evolving)
        for version in range(evolving.num_snapshots):
            assert (decomposition.snapshot_edges(version)
                    == rebuilt.snapshot_edges(version))
        answer = state.query(ALGORITHM, SOURCE)
        for got, want in zip(answer.values,
                             state_oracle(state, ALGORITHM, SOURCE)):
            assert_values_equal(got, want, "after the storm")
    finally:
        state.close()
