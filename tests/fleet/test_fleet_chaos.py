"""Fleet chaos: a storm with a replica kill, a hang, and a partition.

The single-service chaos harness (``tests/service/test_chaos.py``)
proves one replica conserves requests under overload.  This suite
points the same storm at a 3-replica fleet and breaks the fleet
itself mid-run:

* ``replica-0`` is **killed** (non-graceful stop — in-flight work dies);
* ``replica-1`` is **partitioned** from the router (every router→replica
  call fails with an injected wire fault after the first few);
* queries **hang** for a while (injected execution latency holds the
  replicas' tight admission slots, forcing queueing and shedding).

The assertions are fleet-level conservation laws:

* every storm request is answered exactly once or explicitly shed —
  failover never hangs a client and never double-answers;
* fleet ingest receipts stay strictly consecutive even while fan-out
  legs die (nothing lost, nothing double-applied);
* the partitioned replica leaves rotation rather than serving stale
  answers, and only a supervisor resync brings it back;
* after the storm heals, every replica's answers are bit-identical to
  the naive oracle (static compute per snapshot) on the final store;
* the ejections, failovers, and rebalances surface in the metrics
  export.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults, obs
from repro.evolving.store import SnapshotStore
from repro.resilience import RetryPolicy
from repro.service import AdmissionPolicy, ServiceConfig
from repro.fleet import FleetSupervisor
from repro.testing import reset_observability

from tests.conftest import assert_values_equal
from tests.fleet.conftest import fleet_batch
from tests.service.test_chaos import StormClient
from tests.service.test_server import offline_values

pytestmark = [pytest.mark.service, pytest.mark.chaos, pytest.mark.fleet]

N_CLIENTS = 24
N_INGESTS = 4
SEED = 4242


@pytest.fixture
def obs_runtime(tmp_path):
    runtime = obs.configure(sample_rate=1.0,
                            span_sink=tmp_path / "spans.jsonl")
    yield runtime
    reset_observability()


def replica_config(name: str) -> ServiceConfig:
    """Deliberately tight per-replica capacity so the storm must shed."""
    return ServiceConfig(
        request_timeout=10.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.005,
                          multiplier=2.0, max_delay=0.02,
                          retry_on=(OSError,)),
        query_admission=AdmissionPolicy(max_concurrent=2, max_queue=2,
                                        queue_timeout=0.1),
        ingest_admission=AdmissionPolicy(max_concurrent=1, max_queue=8,
                                         queue_timeout=5.0),
        breaker_failure_threshold=3,
        breaker_reset_timeout=0.2,
    )


class FleetIngester(threading.Thread):
    """Like the chaos Ingester, but each batch is derived from the
    survivor replica's on-disk store — the one store guaranteed to
    hold the fleet tip throughout the storm."""

    def __init__(self, supervisor, count, donor):
        super().__init__(name="fleet-storm-ingester")
        self.supervisor = supervisor
        self.count = count
        self.donor = donor
        self.receipts = []
        self.error = None

    def run(self):
        try:
            with self.supervisor.client(timeout=30) as client:
                for _ in range(self.count):
                    additions, deletions = fleet_batch(
                        self.supervisor, donor=self.donor
                    )
                    self.receipts.append(
                        client.ingest(additions=additions,
                                      deletions=deletions)
                    )
        except BaseException as exc:
            self.error = exc


class TestFleetStorm:
    def test_storm_with_kill_hang_and_partition(
        self, tmp_path, base_store, fleet_weights, obs_runtime
    ):
        plan = faults.FaultPlan(seed=SEED)
        # Hang: the first 6 queries to reach any replica's execution
        # path hold their admission slots for 150ms — the burst queues
        # and sheds behind them.
        plan.delay_service(0.15, match="query:*", times=6)
        # Partition: after its first 4 router→replica calls, every
        # wire to replica-1 eats the request, forever.
        plan.fail_service(index=4, match="route:replica-1:*", times=9999)
        # And two transport-level stalls on the survivor, so the
        # router's own forwarding path sees latency too.
        plan.delay_service(0.1, match="route:replica-2:query", times=2)
        offsets = faults.burst_offsets(N_CLIENTS, spread=0.05, seed=SEED)

        supervisor = FleetSupervisor(
            base_store.directory, tmp_path / "fleet",
            replicas=3, weight_fn=fleet_weights,
            service_config=replica_config,
        )
        with supervisor as fleet:
            clients = [
                StormClient(fleet.router_port, source, offset)
                for source, offset in zip(range(N_CLIENTS), offsets)
            ]
            ingester = FleetIngester(fleet, N_INGESTS, donor="replica-2")
            with plan.active():
                ingester.start()
                for client in clients:
                    client.start()
                # Kill replica-0 while the burst is still arriving:
                # its in-flight requests die on the wire and must be
                # answered by someone else.
                time.sleep(0.08)
                fleet.kill_replica("replica-0")
                for client in clients:
                    client.join(timeout=30)
                ingester.join(timeout=30)

            # Conservation: every thread came back, every request was
            # answered exactly once or explicitly shed.
            assert not any(c.is_alive() for c in clients)
            assert not ingester.is_alive()
            assert [c for c in clients if c.error] == []
            assert ingester.error is None
            answered = [c for c in clients if c.response is not None]
            shed = [c for c in clients if c.shed is not None]
            assert len(answered) + len(shed) == N_CLIENTS
            assert answered and shed
            assert all(s.shed.retry_after_ms >= 0 for s in shed)

            status = fleet.fleet_status()
            info = status["fleet"]
            # Each storm query entered the router exactly once —
            # failovers retried *forwards*, never the client request.
            assert status["server"]["queries"] == N_CLIENTS
            assert status["server"]["failovers"] >= 1
            assert status["server"]["ejections"] >= 2

            # The broken replicas left rotation; the survivor carried.
            assert "replica-0" not in info["rotation"]
            assert "replica-1" not in info["rotation"]
            assert "replica-2" in info["rotation"]
            assert info["replicas"]["replica-2"]["state"] == "ready"

            # No lost or duplicated ingest: strictly consecutive fleet
            # receipts even while fan-out legs were dying.
            versions = [r["version"] for r in ingester.receipts]
            assert len(versions) == N_INGESTS
            assert versions == list(range(versions[0],
                                          versions[0] + N_INGESTS))
            assert info["fleet_version"] == versions[-1]

            # -- heal ---------------------------------------------------
            # The kill left a cold store: recover restarts + resyncs.
            report = fleet.recover_replica("replica-0")
            assert report["tip"] == info["fleet_version"]
            # The partition left a stale replica: a probe alone must
            # NOT restore it if it missed batches — only resync may.
            verdicts = fleet.router_runner.probe()
            if verdicts["replica-1"] != "ready":
                tip = fleet.resync("replica-1")
                fleet.router_runner.restore("replica-1", version=tip)

            healed = fleet.fleet_status()["fleet"]
            assert healed["rotation"] == [
                "replica-0", "replica-1", "replica-2",
            ]
            for snapshot in healed["replicas"].values():
                assert snapshot["version"] == healed["fleet_version"]

            # Post-storm answers are bit-identical to a from-scratch
            # offline evaluation — on EVERY replica, asked directly.
            reference_store = SnapshotStore(
                fleet.replicas["replica-2"].store_dir
            )
            last = reference_store.num_snapshots - 1
            for algorithm, source in (("SSSP", 0), ("BFS", 3)):
                expected = offline_values(
                    reference_store, fleet_weights, algorithm, source,
                    0, last,
                )
                for name in fleet.replicas:
                    with fleet.replica_client(name) as probe:
                        live = probe.query(algorithm, source)
                    assert_values_equal(live["values"], expected)

            # The storm is visible in the metrics export.
            export = obs_runtime.registry.render_prometheus()
            assert 'repro_fleet_requests_total{op="query"}' in export
            assert 'repro_fleet_requests_total{op="ingest"}' in export
            failovers = [
                line for line in export.splitlines()
                if line.startswith("repro_fleet_failover_total")
            ]
            assert failovers
            assert float(failovers[0].rsplit(" ", 1)[1]) >= 1
            assert 'repro_fleet_ejections_total{' in export
            assert 'repro_fleet_replica_up{replica="replica-2"} 1' in export
