"""Autopilot chaos: a burst storm with a mid-storm kill, hands off.

The fleet chaos suite proves an *operator* can heal a broken fleet.
This suite takes the operator away: the autopilot runner is the only
thing allowed to touch membership.  A seeded burst storm (three waves
of clients against deliberately tight per-replica admission) overloads
the fleet while ``replica-0`` is killed mid-burst, and the loop must

* **heal** the killed replica (recover: restart + resync) on its own;
* **grow** the fleet under the sustained shed pressure — membership
  changes stay within the hysteresis bound (one per cooldown window);
* keep the fleet's conservation laws intact throughout: every storm
  request answered exactly once or explicitly shed, ingest receipts
  strictly consecutive, and post-storm answers on *every* replica —
  including the freshly provisioned ones — bit-identical to the naive
  oracle (static compute per snapshot) on the final store.
"""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.autopilot import AutopilotConfig, AutopilotRunner, FleetAutopilot
from repro.evolving.store import SnapshotStore
from repro.fleet import FleetSupervisor
from repro.resilience import RetryPolicy
from repro.service import AdmissionPolicy, ServiceConfig

from tests.conftest import assert_values_equal
from tests.fleet.test_fleet_chaos import FleetIngester
from tests.service.test_chaos import StormClient
from tests.service.test_server import offline_values

pytestmark = [pytest.mark.service, pytest.mark.chaos, pytest.mark.fleet,
              pytest.mark.autopilot]

N_CLIENTS = 24     # per wave
N_WAVES = 3
N_INGESTS = 4
SEED = 777
CONVERGE_TIMEOUT = 60.0


def replica_config(name: str) -> ServiceConfig:
    """Tight per-replica capacity: each wave must queue and shed."""
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


def autopilot_config() -> AutopilotConfig:
    """Aggressive observe/grow cadence, shrink effectively disabled —
    the storm is seconds long, so the loop must notice within it."""
    return AutopilotConfig(
        min_replicas=2,
        max_replicas=5,
        ewma_alpha=1.0,
        scale_up_pressure=0.15,
        scale_down_pressure=0.01,
        queue_pressure_depth=2,
        calm_cycles=10_000,          # never shrink inside this test
        grow_cooldown_s=1.5,
        shrink_cooldown_s=600.0,
        heal_cooldown_s=0.1,
        interval_s=0.05,
        jitter=0.2,
        jitter_seed=SEED,
        action_deadline_s=30.0,
    )


def converged(fleet, autopilot) -> bool:
    """Every owned replica running, in rotation, and at the fleet tip —
    and the loop both healed and grew at least once."""
    if autopilot.counters["heals"] < 1 or autopilot.counters["grows"] < 1:
        return False
    if autopilot.policy.in_flight is not None:
        return False
    if not all(replica.running for replica in fleet.replicas.values()):
        return False
    status = fleet.fleet_status()["fleet"]
    if sorted(status["rotation"]) != sorted(fleet.replicas):
        return False
    return all(doc["version"] == status["fleet_version"]
               for doc in status["replicas"].values())


class TestAutopilotStorm:
    def test_storm_with_kill_heals_and_grows_hands_off(
        self, tmp_path, base_store, fleet_weights, obs_runtime
    ):
        plan = faults.FaultPlan(seed=SEED)
        # Hangs: early queries hold their tight admission slots, so
        # each wave queues and sheds behind them.
        plan.delay_service(0.15, match="query:*", times=8)
        offsets = faults.burst_offsets(N_CLIENTS, spread=0.05, seed=SEED)

        supervisor = FleetSupervisor(
            base_store.directory, tmp_path / "fleet",
            replicas=3, weight_fn=fleet_weights,
            service_config=replica_config,
        )
        clients = []
        with supervisor as fleet:
            autopilot = FleetAutopilot(fleet, autopilot_config())
            with autopilot, AutopilotRunner(autopilot):
                ingester = FleetIngester(fleet, N_INGESTS,
                                         donor="replica-2")
                with plan.active():
                    ingester.start()
                    for wave in range(N_WAVES):
                        wave_clients = [
                            StormClient(fleet.router_port, source, offset)
                            for source, offset
                            in zip(range(N_CLIENTS), offsets)
                        ]
                        clients.extend(wave_clients)
                        for client in wave_clients:
                            client.start()
                        if wave == 0:
                            # Kill mid-burst: in-flight requests die on
                            # the wire; nobody but the autopilot may
                            # bring the replica back.
                            time.sleep(0.08)
                            fleet.kill_replica("replica-0")
                        time.sleep(0.8)
                    for client in clients:
                        client.join(timeout=30)
                    ingester.join(timeout=30)

                # Hands off: poll (reads only) until the loop has both
                # healed the kill and grown the fleet, and every
                # replica sits at the fleet tip.
                deadline = time.monotonic() + CONVERGE_TIMEOUT
                while time.monotonic() < deadline:
                    if converged(fleet, autopilot):
                        break
                    time.sleep(0.2)
                assert converged(fleet, autopilot), (
                    autopilot.counters,
                    [d.to_dict() for d in list(autopilot.decisions)[-8:]],
                )

            # -- conservation ---------------------------------------------
            assert not any(c.is_alive() for c in clients)
            assert not ingester.is_alive()
            assert [c for c in clients if c.error] == []
            assert ingester.error is None
            answered = [c for c in clients if c.response is not None]
            shed = [c for c in clients if c.shed is not None]
            assert len(answered) + len(shed) == N_WAVES * N_CLIENTS
            assert answered and shed

            # -- hysteresis bound -----------------------------------------
            # Healing is repair, not scaling; the membership changes are
            # the grows, one per cooldown window across a ~3s storm.
            assert autopilot.counters["heals"] >= 1
            assert 1 <= autopilot.counters["grows"] <= 3
            assert autopilot.counters["shrinks"] == 0
            assert autopilot.counters["membership_changes"] <= 3
            grown = sorted(fleet.replicas)
            assert len(grown) >= 4
            assert "replica-0" in grown  # healed, not replaced

            # -- receipts stay strictly consecutive -----------------------
            versions = [r["version"] for r in ingester.receipts]
            assert len(versions) == N_INGESTS
            assert versions == list(range(versions[0],
                                          versions[0] + N_INGESTS))
            status = fleet.fleet_status()["fleet"]
            assert status["fleet_version"] == versions[-1]

            # -- bit-identical answers on every replica -------------------
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

            # -- the loop's own story is on the record --------------------
            decisions = [d.to_dict() for d in autopilot.decisions]
            assert any(d["action"] and d["action"]["verb"] == "heal"
                       and d["outcome"] and d["outcome"]["ok"]
                       for d in decisions)
            assert any(d["action"] and d["action"]["verb"] == "grow"
                       and d["outcome"] and d["outcome"]["ok"]
                       for d in decisions)
            payload = fleet.fleet_status()["autopilot"]
            assert payload["counters"]["grows"] == \
                autopilot.counters["grows"]

            export = obs_runtime.registry.render_prometheus()
            assert "repro_autopilot_cycles_total" in export
            assert 'repro_autopilot_actions_total{verb="heal",outcome="ok"}' \
                in export
            assert 'repro_autopilot_actions_total{verb="grow",outcome="ok"}' \
                in export
            changes = [
                line for line in export.splitlines()
                if line.startswith("repro_autopilot_membership_changes_total")
            ]
            assert changes
            assert 1 <= float(changes[0].rsplit(" ", 1)[1]) <= 3
