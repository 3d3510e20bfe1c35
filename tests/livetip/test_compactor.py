"""Compactor unit tests: policy triggers, net-zero collapse, retry.

The compactor is exercised here against a plain callable append lane
(the retry loop needs injectable failures); the real store-backed fold
path is covered end-to-end in ``test_state_livetip.py``.
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


def make_pair(max_updates=64, append=None):
    overlay = LiveTipOverlay(CommonGraphDecomposition.from_snapshots(N, [TIP]),
                             tip_version=0, weight_fn=WF)
    appended: List[DeltaBatch] = []
    compactor = Compactor(
        overlay, append if append is not None else appended.append,
        max_updates=max_updates,
    )
    return overlay, compactor, appended


class TestPolicy:
    def test_max_updates_must_be_positive(self):
        with pytest.raises(ServiceError):
            make_pair(max_updates=0)

    def test_clean_overlay_is_never_due(self):
        _, compactor, _ = make_pair()
        assert compactor.due() is False
        assert compactor.maybe_compact() is None

    def test_due_at_the_count_threshold(self):
        overlay, compactor, _ = make_pair(max_updates=2)
        overlay.apply_update("insert", 3, 0)
        assert compactor.due() is False
        overlay.apply_update("insert", 3, 1)
        assert compactor.due() is True


class TestFolding:
    def test_clean_compact_is_a_noop(self):
        _, compactor, appended = make_pair()
        receipt = compactor.compact()
        assert receipt["compacted"] is False
        assert receipt["updates_folded"] == 0
        assert appended == []

    def test_fold_appends_the_net_batch(self):
        overlay, compactor, appended = make_pair()
        overlay.apply_update("insert", 3, 0)
        overlay.apply_update("delete", 2, 3)
        receipt = compactor.compact()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert len(appended) == 1
        assert sorted(appended[0].additions) == [(3, 0)]
        assert sorted(appended[0].deletions) == [(2, 3)]
        assert compactor.compactions == 1
        assert compactor.updates_folded == 2

    def test_net_zero_log_collapses_without_an_append(self):
        overlay, compactor, appended = make_pair()
        overlay.apply_update("insert", 3, 0)
        overlay.apply_update("delete", 3, 0)
        receipt = compactor.compact()
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 2
        assert appended == []  # pure churn: no version, no epoch bump
        assert overlay.depth == 0

    def test_delta_error_triggers_a_reseal(self):
        overlay, _, _ = make_pair()
        overlay.apply_update("insert", 3, 0)
        failures = [DeltaError("tip moved"), DeltaError("tip moved")]
        appended: List[DeltaBatch] = []

        def flaky_append(batch: DeltaBatch) -> None:
            if failures:
                raise failures.pop()
            appended.append(batch)

        compactor = Compactor(overlay, flaky_append)
        receipt = compactor.compact()
        assert receipt["compacted"] is True
        assert len(appended) == 1

    def test_persistent_delta_error_raises_after_three_attempts(self):
        overlay, _, _ = make_pair()
        overlay.apply_update("insert", 3, 0)
        attempts = []

        def broken_append(batch: DeltaBatch) -> None:
            attempts.append(batch)
            raise DeltaError("tip keeps moving")

        compactor = Compactor(overlay, broken_append)
        with pytest.raises(DeltaError):
            compactor.compact()
        assert len(attempts) == 3
