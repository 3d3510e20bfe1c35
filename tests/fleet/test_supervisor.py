"""Supervisor workflows: rolling restarts, drain-vs-ingest, resync."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceOverloadedError
from repro.evolving.store import SnapshotStore

from tests.fleet.conftest import fleet_batch
from tests.fleet.test_fleet_livetip import fresh_edges

pytestmark = [pytest.mark.service, pytest.mark.fleet]


class QueryLoop(threading.Thread):
    """Issues queries through the router until told to stop."""

    def __init__(self, supervisor, sources, stop_event):
        super().__init__(name=f"fleet-load-{sources[0]}")
        self.supervisor = supervisor
        self.sources = sources
        self.stop_event = stop_event
        self.answered = 0
        self.shed = 0
        self.errors = []

    def run(self):
        try:
            with self.supervisor.client(overload_retries=0) as client:
                while not self.stop_event.is_set():
                    for source in self.sources:
                        try:
                            response = client.query("SSSP", source)
                        except ServiceOverloadedError:
                            self.shed += 1
                            continue
                        assert response["ok"]
                        self.answered += 1
        except BaseException as exc:  # anything else fails the test
            self.errors.append(exc)


class IngestLoop(threading.Thread):
    """Applies ``count`` sequential batches through the router."""

    def __init__(self, supervisor, count, donor="replica-2", pause=0.02):
        super().__init__(name="fleet-ingester")
        self.supervisor = supervisor
        self.count = count
        self.donor = donor
        self.pause = pause
        self.receipts = []
        self.error = None

    def run(self):
        try:
            with self.supervisor.client() as client:
                for _ in range(self.count):
                    additions, deletions = fleet_batch(
                        self.supervisor, donor=self.donor
                    )
                    self.receipts.append(
                        client.ingest(additions=additions,
                                      deletions=deletions)
                    )
                    time.sleep(self.pause)
        except BaseException as exc:
            self.error = exc


class TestRollingRestart:
    def test_zero_failed_requests_under_continuous_load(self, fleet):
        """The acceptance bar: roll all 3 replicas under query load —
        every request is answered (or explicitly shed), none fail."""
        stop = threading.Event()
        loops = [
            QueryLoop(fleet, list(range(lo, lo + 4)), stop)
            for lo in (0, 4, 8)
        ]
        for loop in loops:
            loop.start()
        try:
            reports = fleet.rolling_restart()
        finally:
            stop.set()
            for loop in loops:
                loop.join(timeout=30)
        assert not any(loop.is_alive() for loop in loops)
        for loop in loops:
            assert loop.errors == []
            assert loop.answered > 0
        assert [r["replica"] for r in reports] == [
            "replica-0", "replica-1", "replica-2",
        ]
        assert all(r["drain"]["drained"] for r in reports)
        assert all(r["tip"] == 4 for r in reports)
        with fleet.client() as client:
            status = client.status()
        assert status["fleet"]["rotation"] == [
            "replica-0", "replica-1", "replica-2",
        ]
        assert status["lifecycle"]["ready"] is True

    def test_rolling_restart_preserves_answers(self, fleet, fleet_weights):
        with fleet.client() as client:
            before = client.query("SSSP", 3)["values"]
        fleet.rolling_restart()
        answers = {}
        for name in fleet.replicas:
            with fleet.replica_client(name) as direct:
                answers[name] = direct.query("SSSP", 3)["values"]
        for name, values in answers.items():
            assert len(values) == len(before)
            for got, want in zip(values, before):
                assert np.array_equal(got, want), name


class TestDrainRacesIngest:
    def test_receipts_stay_consecutive_across_drain_restart_resync(
        self, fleet
    ):
        """Satellite: drain one replica while ingests flow through the
        router.  The drained replica misses batches, resync replays
        them, and the fleet's receipt chain never skips or repeats."""
        ingester = IngestLoop(fleet, count=4, donor="replica-2")
        ingester.start()
        report = fleet.restart_replica("replica-0")
        ingester.join(timeout=30)
        assert not ingester.is_alive()
        assert ingester.error is None
        assert report["drain"]["drained"] is True

        versions = [r["version"] for r in ingester.receipts]
        assert len(versions) == 4
        # Strictly consecutive: nothing lost, nothing double-applied.
        assert versions == list(range(versions[0], versions[0] + 4))
        fleet_tip = versions[-1]

        # The restarted replica caught up (the restart's resync landed
        # at whatever tip the fleet had then; later batches fanned out
        # to it normally once restored).
        for name in fleet.replicas:
            assert fleet.tip(name) == fleet_tip
        with fleet.client() as client:
            status = client.status()
        assert status["fleet"]["fleet_version"] == fleet_tip
        assert status["fleet"]["rotation"] == [
            "replica-0", "replica-1", "replica-2",
        ]

    def test_restarted_replica_answers_like_the_others(self, fleet):
        ingester = IngestLoop(fleet, count=3, donor="replica-2")
        ingester.start()
        fleet.restart_replica("replica-0")
        ingester.join(timeout=30)
        assert ingester.error is None
        answers = {}
        for name in fleet.replicas:
            with fleet.replica_client(name) as direct:
                answers[name] = direct.query("BFS", 1)["values"]
        reference = answers["replica-2"]
        for name, values in answers.items():
            for got, want in zip(values, reference):
                assert np.array_equal(got, want), name


class TestKillAndRecover:
    def test_ingests_while_dead_are_replayed_on_recovery(self, fleet):
        fleet.kill_replica("replica-1")
        with fleet.client() as client:
            for _ in range(2):
                additions, deletions = fleet_batch(fleet)
                receipt = client.ingest(additions=additions,
                                        deletions=deletions)
                assert receipt["replicas"] == 2
        assert receipt["fleet_version"] == 6

        report = fleet.recover_replica("replica-1")
        assert report["tip"] == 6
        # The recovered store is byte-for-byte in agreement: same batch
        # count and same tip digest as the donor.
        recovered = SnapshotStore(fleet.replicas["replica-1"].store_dir)
        donor = SnapshotStore(fleet.replicas["replica-0"].store_dir)
        assert recovered.num_snapshots == donor.num_snapshots
        with fleet.client() as client:
            assert client.status()["fleet"]["rotation"] == [
                "replica-0", "replica-1", "replica-2",
            ]


class TestBoundedResync:
    def lag_replica(self, fleet, name="replica-1", batches=2):
        """Kill ``name``, advance the fleet past it, restart it cold —
        a running replica that is ``batches`` behind the tip."""
        fleet.kill_replica(name)
        with fleet.client() as client:
            for _ in range(batches):
                additions, deletions = fleet_batch(fleet)
                client.ingest(additions=additions, deletions=deletions)
        replica = fleet.replicas[name]
        fleet._start_replica(replica)
        fleet._retarget(name)
        return name

    def test_expired_deadline_surfaces_stalled_with_progress(self, fleet):
        from repro.errors import ResyncStalledError
        from repro.resilience import Deadline

        name = self.lag_replica(fleet, batches=2)
        with pytest.raises(ResyncStalledError) as excinfo:
            fleet.resync(name, deadline=Deadline.after(0.0))
        progress = excinfo.value.progress
        assert progress["replica"] == name
        assert progress["batches_replayed"] == 0
        assert progress["batches_missing"] == 2
        assert progress["tip"] == 4
        # Progress is durable: an unbounded resync resumes and lands.
        tip = fleet.resync(name)
        assert tip == 6
        fleet.router_runner.restore(name, version=tip)
        with fleet.client() as client:
            assert client.status()["fleet"]["rotation"] == [
                "replica-0", "replica-1", "replica-2",
            ]

    def test_restore_catches_up_its_own_fold_in_one_round(self, fleet,
                                                          monkeypatch):
        # A pending live-tip update makes the restore fold the fleet,
        # which moves the tip one batch past the resynced replica; the
        # catch-up runs inside the same lock hold, so the first restore
        # already lands.
        name = self.lag_replica(fleet, batches=1)
        with fleet.client() as client:
            client.update("insert", *fresh_edges(fleet, 1, set())[0])
            assert client.status()["fleet"]["fleet_overlay_depth"] == 1
        restores = []
        restore = fleet.router_runner.restore

        def counted(*args, **kwargs):
            restores.append(args)
            return restore(*args, **kwargs)

        monkeypatch.setattr(fleet.router_runner, "restore", counted)
        tip = fleet._resync_and_restore(name)
        assert len(restores) == 1
        assert tip == fleet.tip(name) == fleet.tip("replica-0") == 6
        with fleet.client() as client:
            status = client.status()["fleet"]
        assert status["fleet_overlay_depth"] == 0
        assert status["fleet_version"] == 6
        assert status["rotation"] == ["replica-0", "replica-1", "replica-2"]

