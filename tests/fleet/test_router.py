"""Router behaviour: affinity, fan-out receipts, failover, quarantine."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.errors import FleetError
from repro.evolving.store import SnapshotStore
from repro.fleet import ConsistentHashRing
from repro.graph.edgeset import decode_edges

from tests.conftest import oracle_values
from tests.fleet.conftest import fleet_batch, pairs
from tests.service.conftest import valid_batch
from tests.service.golden import Gate

pytestmark = [pytest.mark.service, pytest.mark.fleet]


def absent_pairs(store):
    """Every (u, v) edge absent from the store's tip, in scan order."""
    evolving = store.load()
    tip = evolving.snapshot_edges(evolving.num_snapshots - 1)
    present = set(zip(*(arr.tolist() for arr in decode_edges(tip.codes))))
    n = store.num_vertices
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and (u, v) not in present]


class TestBasics:
    def test_ping_and_status_shape(self, fleet):
        with fleet.client() as client:
            assert client.ping()
            status = client.status()
        assert status["wire_version"] == 2
        info = status["fleet"]
        assert sorted(info["replicas"]) == [
            "replica-0", "replica-1", "replica-2",
        ]
        assert info["rotation"] == ["replica-0", "replica-1", "replica-2"]
        assert info["fleet_version"] == 4  # 5 snapshots -> tip version 4
        for snapshot in info["replicas"].values():
            assert snapshot["state"] == "ready"
            assert snapshot["version"] == 4
            assert snapshot["breaker"]["state"] == "closed"
            assert "retry_after" in snapshot["breaker"]
        assert status["lifecycle"] == {
            "live": True, "ready": True, "draining": False,
        }

    def test_unknown_replica_raises(self, fleet):
        with pytest.raises(FleetError):
            fleet.router_runner.restore("nope")


class TestQueryAffinity:
    def test_routing_matches_the_ring(self, fleet):
        """The router's placement is exactly the documented hash ring."""
        ring = ConsistentHashRing(
            ["replica-0", "replica-1", "replica-2"],
            vnodes=fleet.router_runner.router.config.vnodes,
        )
        with fleet.client() as client:
            for source in range(12):
                response = client.query("SSSP", source)
                assert response["replica"] == ring.owner(source)

    def test_affinity_turns_repeats_into_cache_hits(self, fleet):
        with fleet.client() as client:
            first = client.query("SSSP", 5)
            repeat = client.query("SSSP", 5)
        assert first["replica"] == repeat["replica"]
        assert repeat["from_cache"] is True
        for a, b in zip(first["values"], repeat["values"]):
            assert np.array_equal(a, b)


class TestIngestFanOut:
    def test_every_replica_applies_the_batch(self, fleet):
        additions, deletions = fleet_batch(fleet)
        with fleet.client() as client:
            receipt = client.ingest(additions=additions, deletions=deletions)
        assert receipt["version"] == 5
        assert receipt["fleet_version"] == 5
        assert receipt["replicas"] == 3
        for name in fleet.replicas:
            assert fleet.tip(name) == 5

    def test_receipts_stay_consecutive_across_batches(self, fleet):
        versions = []
        with fleet.client() as client:
            for _ in range(3):
                additions, deletions = fleet_batch(fleet)
                versions.append(
                    client.ingest(additions=additions,
                                  deletions=deletions)["version"]
                )
        assert versions == [5, 6, 7]


class TestFailover:
    def test_query_fails_over_when_the_owner_dies(self, fleet):
        source = 0
        with fleet.client() as client:
            owner = client.query("SSSP", source)["replica"]
            # Kill the owner *without telling the router* — it must
            # discover the failure from the connection itself.
            replica = fleet.replicas[owner]
            runner, replica.runner = replica.runner, None
            runner.stop()
            runner.state.close()
            response = client.query("SSSP", source)
            status = client.status()
        assert response["ok"] is True
        assert response["replica"] != owner
        assert response["failovers"] >= 1
        info = status["fleet"]
        assert info["replicas"][owner]["state"] == "unhealthy"
        assert owner not in info["rotation"]
        assert status["server"]["failovers"] >= 1
        assert status["server"]["ejections"] >= 1

    def test_a_held_answer_survives_a_failover(self, fleet, fleet_weights):
        # The client holds the owner's tag; after the owner dies another
        # replica answers, in full (its miss) and then values-less: a tag
        # is a content hash, so every replica spells the answer the same.
        source = 0
        want = oracle_values(
            SnapshotStore(fleet.replicas["replica-0"].store_dir).load(),
            get_algorithm("SSSP"), source, 0, 4, fleet_weights)
        with fleet.client() as client:
            replies = [client.query("SSSP", source) for _ in range(2)]
            owner = replies[-1]["replica"]
            held = replies[-1]["values_tag"]
            fleet.kill_replica(owner)
            for _ in range(3):
                replies.append(client.query("SSSP", source))
        assert "values_tag" not in replies[0]
        assert replies[1]["from_cache"] and "values_tag" in replies[1]
        after = replies[2:]
        assert all(reply["replica"] != owner for reply in after)
        assert [("values_tag" in reply) for reply in after] == [
            False, True, True]
        assert after[1]["values_tag"] == after[2]["values_tag"] == held
        for reply in replies:
            assert (reply["first"], reply["last"]) == (0, 4)
            for got, expected in zip(reply["values"], want):
                np.testing.assert_array_equal(got, expected)

    def test_probe_restores_an_ejected_healthy_replica(self, fleet):
        fleet.router_runner.eject("replica-1", "operator")
        with fleet.client() as client:
            assert "replica-1" not in client.status()["fleet"]["rotation"]
        verdicts = fleet.router_runner.probe()
        assert verdicts["replica-1"] == "ready"
        with fleet.client() as client:
            assert "replica-1" in client.status()["fleet"]["rotation"]

    def test_no_rotation_answers_unavailable(self, fleet):
        for name in fleet.replicas:
            fleet.router_runner.eject(name, "operator")
        with fleet.client() as client:
            response = client.request({"op": "query", "algorithm": "SSSP",
                                       "source": 0})
        assert response["ok"] is False
        assert response["unavailable"] is True
        assert response["error_type"] == "ServiceUnavailableError"
        fleet.router_runner.probe()
        with fleet.client() as client:
            assert len(client.status()["fleet"]["rotation"]) == 3


class TestReceiptConsistency:
    def test_diverging_receipt_quarantines_the_replica(self, fleet):
        # Poison replica-2 behind the router's back: append a batch the
        # rest of the fleet never saw (the *last* absent edge, so the
        # next fleet batch — built from the *first* absent edges — is
        # still valid against its tip and produces a receipt one ahead).
        rogue_store = SnapshotStore(fleet.replicas["replica-2"].store_dir)
        rogue_edge = absent_pairs(rogue_store)[-1]
        with fleet.replica_client("replica-2") as direct:
            direct.ingest(additions=[list(rogue_edge)])
        assert fleet.tip("replica-2") == 5

        clean = SnapshotStore(fleet.replicas["replica-0"].store_dir)
        batch = valid_batch(clean, n_add=2, n_del=1)
        with fleet.client() as client:
            receipt = client.ingest(additions=pairs(batch.additions),
                                    deletions=pairs(batch.deletions))
            status = client.status()

        # The honest majority agreed on version 5; replica-2 reported 6.
        assert receipt["version"] == 5
        assert receipt["replicas"] == 2
        info = status["fleet"]
        assert info["replicas"]["replica-2"]["state"] == "quarantined"
        assert info["replicas"]["replica-2"]["reason"] == "divergence"
        assert info["rotation"] == ["replica-0", "replica-1"]
        assert status["server"]["receipt_divergences"] == 1

        # A probe must NOT restore it: its history diverged.
        verdicts = fleet.router_runner.probe()
        assert verdicts["replica-2"] == "quarantined"

        # resync refuses (the replica is ahead); rebuild reconciles.
        with pytest.raises(FleetError):
            fleet.resync("replica-2")
        tip = fleet.rebuild_replica("replica-2")
        assert tip == 5
        with fleet.client() as client:
            assert client.status()["fleet"]["rotation"] == [
                "replica-0", "replica-1", "replica-2",
            ]

    def test_missed_batch_quarantines_and_resync_heals(self, fleet):
        # Stop replica-1 without telling the router; the next fan-out
        # leg fails, so the replica missed a batch the fleet applied.
        replica = fleet.replicas["replica-1"]
        runner, replica.runner = replica.runner, None
        runner.stop()
        runner.state.close()
        additions, deletions = fleet_batch(fleet)
        with fleet.client() as client:
            receipt = client.ingest(additions=additions, deletions=deletions)
            status = client.status()
        assert receipt["replicas"] == 2
        assert receipt["fleet_version"] == 5
        snapshot = status["fleet"]["replicas"]["replica-1"]
        assert snapshot["state"] == "quarantined"
        assert snapshot["reason"] == "ingest_failed"

        report = fleet.recover_replica("replica-1")
        assert report["tip"] == 5
        assert fleet.tip("replica-1") == 5
        with fleet.client() as client:
            assert "replica-1" in client.status()["fleet"]["rotation"]


class TestDeadline:
    def test_client_timeout_is_honoured_across_failovers(self, fleet):
        # With a microscopic budget the router must answer (an error)
        # rather than retry forever against ejected replicas.
        for name in ("replica-0", "replica-1"):
            replica = fleet.replicas[name]
            runner, replica.runner = replica.runner, None
            runner.stop()
            runner.state.close()
        # The survivor's query is held until the router has answered, so
        # a fast evaluation cannot beat the 1 ms budget and answer ok.
        gate = Gate(fleet.replicas["replica-2"].runner.state)
        try:
            with fleet.client() as client:
                response = client.request({
                    "op": "query", "algorithm": "SSSP", "source": 0,
                    "timeout_ms": 1,
                })
        finally:
            gate.release()
        # The budget died somewhere along the failover chain — at the
        # router, at the surviving replica's admission gate, or in its
        # executor — but it *answered*, promptly, instead of burning
        # retries against the dead owners.
        assert response["ok"] is False
        assert response["error_type"] in (
            "DeadlineExceededError", "ServiceUnavailableError",
            "ServiceOverloadedError",
        )


class TestProbeInterval:
    def test_route_probes_out_of_the_box_and_the_old_spelling_is_gone(self):
        from repro.cli import build_parser
        from repro.fleet.router import RouterConfig

        assert RouterConfig().probe_interval_s is None
        with pytest.raises(TypeError):
            RouterConfig(health_interval=5.0)
        parser = build_parser()
        assert parser.parse_args(["route", "store"]).probe_interval == 2.0
        with pytest.raises(SystemExit):
            parser.parse_args(["route", "store", "--health-interval", "5"])

    def test_jitter_knobs_have_safe_defaults(self):
        from repro.fleet.router import RouterConfig

        config = RouterConfig()
        assert 0.0 <= config.probe_jitter < 1.0
        # None = derive from the router's port, which already differs
        # per router, so co-started routers drift apart.
        assert config.probe_jitter_seed is None

    def test_probe_loop_runs_at_the_configured_interval(
        self, tmp_path, base_store, fleet_weights
    ):
        from repro.fleet import FleetSupervisor
        from repro.fleet.router import RouterConfig

        supervisor = FleetSupervisor(
            base_store.directory, tmp_path / "fleet",
            replicas=1, weight_fn=fleet_weights,
            router_config=RouterConfig(probe_interval_s=0.05,
                                       probe_jitter=0.2,
                                       probe_jitter_seed=9),
        )
        with supervisor as fleet:
            deadline = time.monotonic() + 10.0
            probes = 0
            while time.monotonic() < deadline:
                with fleet.client() as client:
                    probes = client.status()["server"]["probes"]
                if probes >= 2:
                    break
                time.sleep(0.05)
        assert probes >= 2

