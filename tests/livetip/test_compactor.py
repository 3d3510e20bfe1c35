"""Compactor unit tests: policy triggers, net-zero collapse, failures.

The compactor is exercised here against a plain callable append lane
(so failures can be injected) and a :class:`Published` stand-in for the
service state's publisher; the real store-backed fold path is covered
end-to-end in ``test_state_livetip.py``.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.common import CommonGraphDecomposition
from repro.errors import DeltaError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import HashWeights
from repro.livetip import Compactor, LiveTipOverlay

pytestmark = pytest.mark.livetip

WF = HashWeights(max_weight=8, seed=7)
TIP = EdgeSet.from_pairs([(0, 1), (1, 2), (2, 3)])
N = 5


class Published:
    """The overlay published now, replaced whole by each update and a
    net-zero collapse — what the service state does for the compactor."""

    def __init__(self) -> None:
        self.overlay = LiveTipOverlay(
            CommonGraphDecomposition.from_snapshots(N, [TIP]),
            tip_version=0, weight_fn=WF)

    def apply_update(self, kind, u, v):
        self.overlay = self.overlay.apply_update(kind, u, v)

    def collapse(self):
        self.overlay = self.overlay.rebase_onto(self.overlay._anchor, 0)
        return self.overlay

    def compactor(self, append, **kwargs):
        return Compactor(lambda: self.overlay, append, self.collapse,
                         **kwargs)


def make_pair(max_updates=64, append=None):
    published = Published()
    appended: List[DeltaBatch] = []
    compactor = published.compactor(
        append if append is not None else appended.append,
        max_updates=max_updates,
    )
    return published, compactor, appended


class TestPolicy:
    def test_max_updates_must_be_positive(self):
        with pytest.raises(ServiceError):
            make_pair(max_updates=0)

    def test_clean_overlay_is_never_due(self):
        _, compactor, _ = make_pair()
        assert compactor.due() is False
        assert compactor.maybe_compact() is None

    def test_due_at_the_count_threshold(self):
        published, compactor, _ = make_pair(max_updates=2)
        published.apply_update("insert", 3, 0)
        assert compactor.due() is False
        published.apply_update("insert", 3, 1)
        assert compactor.due() is True


class TestFolding:
    def test_clean_compact_is_a_noop(self):
        _, compactor, appended = make_pair()
        receipt = compactor.compact()
        assert receipt["compacted"] is False
        assert receipt["updates_folded"] == 0
        assert appended == []

    def test_fold_appends_the_net_batch(self):
        published, compactor, appended = make_pair()
        published.apply_update("insert", 3, 0)
        published.apply_update("delete", 2, 3)
        receipt = compactor.compact()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert len(appended) == 1
        assert sorted(appended[0].additions) == [(3, 0)]
        assert sorted(appended[0].deletions) == [(2, 3)]
        totals = compactor.snapshot()
        assert (totals["compactions"], totals["updates_folded"]) == (1, 2)
        assert totals["last_compaction_version"] == 0

    def test_net_zero_log_collapses_without_an_append(self):
        published, compactor, appended = make_pair()
        published.apply_update("insert", 3, 0)
        published.apply_update("delete", 3, 0)
        receipt = compactor.compact()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert appended == []  # pure churn: no version, no epoch bump
        assert published.overlay.depth == 0
        assert published.overlay.seq == 2

    def test_an_update_landing_mid_collapse_stays_pending(self):
        published, _, appended = make_pair()
        published.apply_update("insert", 3, 0)
        published.apply_update("delete", 3, 0)
        collapse = published.collapse

        def racing():
            published.apply_update("insert", 3, 1)  # lands after the seal
            return collapse()

        published.collapse = racing
        receipt = published.compactor(appended.append).compact()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert appended == []
        assert published.overlay.depth == 1
        assert sorted(published.overlay.seal()[0].additions) == [(3, 1)]

    def test_a_delta_error_raises_after_one_attempt(self):
        published, _, _ = make_pair()
        published.apply_update("insert", 3, 0)
        attempts = []

        def rejecting_append(batch: DeltaBatch) -> None:
            attempts.append(batch)
            raise DeltaError("tip moved")

        compactor = published.compactor(rejecting_append)
        with pytest.raises(DeltaError):
            compactor.compact()
        assert len(attempts) == 1
        assert published.overlay.depth == 1
        assert compactor.snapshot()["compactions"] == 0
