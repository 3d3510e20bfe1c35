"""Deterministic chaos harness: burst load + injected latency/faults.

A storm of concurrent clients hits a deliberately under-provisioned
server while an ingester advances the graph and a seeded
:class:`~repro.faults.FaultPlan` injects latency and transient
failures.  The assertions are *conservation laws* rather than timing
expectations, so the suite is deterministic under fixed seeds:

* every request is answered, explicitly shed or answered with its
  injected fault — shedding never hangs a client, client-observed
  sheds equal the server's count, and each faulted read fails alone
  (a read is never retried);
* queue depth stays bounded by the admission policy;
* no ingest is lost or duplicated: receipts carry strictly
  consecutive versions;
* after the storm, answers are bit-identical to the naive oracle
  (static compute per materialised snapshot) on the final store;
* drain completes within its deadline with zero abandoned work;
* shed counts surface in the metrics export.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults, obs
from repro.errors import ServiceError, ServiceOverloadedError
from repro.resilience import RetryPolicy
from repro.service import (
    AdmissionPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    ServiceState,
)
from repro.testing import reset_observability

from tests.conftest import assert_values_equal
from tests.service.conftest import valid_batch
from tests.service.test_server import offline_values

pytestmark = [pytest.mark.service, pytest.mark.chaos]

N_CLIENTS = 32
N_INGESTS = 4
SEED = 1337


@pytest.fixture
def obs_runtime(tmp_path):
    runtime = obs.configure(sample_rate=1.0,
                            span_sink=tmp_path / "spans.jsonl")
    yield runtime
    reset_observability()


@pytest.fixture
def chaos_state(service_store, service_weights, obs_runtime):
    state = ServiceState(service_store, weight_fn=service_weights)
    unsubscribe = state.register_metrics()
    yield state
    unsubscribe()
    state.close()


def chaos_config():
    """Deliberately tight capacity so the storm must shed."""
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


class StormClient(threading.Thread):
    """One storm participant: a single query, outcome recorded."""

    def __init__(self, port, source, offset):
        super().__init__(name=f"storm-{source}")
        self.port = port
        self.source = source
        self.offset = offset
        self.response = None
        self.shed = None
        self.failed = None
        self.error = None

    def run(self):
        time.sleep(self.offset)
        try:
            with ServiceClient(port=self.port, timeout=30,
                               overload_retries=0) as client:
                self.response = client.query("SSSP", self.source)
        except ServiceOverloadedError as exc:
            self.shed = exc
        except ServiceError as exc:  # an error reply
            self.failed = exc
        except BaseException as exc:  # anything else fails the test
            self.error = exc


class Ingester(threading.Thread):
    """Applies N sequential batches, collecting every receipt.

    Each batch is derived from the store's tip *after* the previous
    receipt, so the chain is valid under the store's strict-append
    contract no matter how the storm interleaves.
    """

    def __init__(self, port, store, count):
        super().__init__(name="storm-ingester")
        self.port = port
        self.store = store
        self.count = count
        self.receipts = []
        self.error = None

    def run(self):
        try:
            with ServiceClient(port=self.port, timeout=30) as client:
                for _ in range(self.count):
                    batch = valid_batch(self.store, n_add=2, n_del=1)
                    receipt = client.ingest(
                        additions=[list(p) for p in batch.additions],
                        deletions=[list(p) for p in batch.deletions],
                    )
                    self.receipts.append(receipt)
        except BaseException as exc:
            self.error = exc


class TestChaosStorm:
    def test_burst_storm_conserves_every_request(
        self, service_store, service_weights, chaos_state, obs_runtime
    ):
        plan = faults.FaultPlan(seed=SEED)
        # Latency: the first 4 queries to reach the primary path hold
        # their execution slots for 150ms, forcing the burst to queue
        # and shed (the two slots stay held past the 100ms queue budget,
        # so at least two queries execute).  Faults: the second executed
        # query fails and answers its error, and the first ingest fails
        # twice, healed by its retries.
        plan.delay_service(0.15, match="query:*", times=4)
        plan.fail_service(index=1, match="query:*", times=1)
        plan.fail_service(index=0, match="ingest:*", times=2)
        offsets = faults.burst_offsets(N_CLIENTS, spread=0.05, seed=SEED)

        config = chaos_config()
        with ServiceRunner(chaos_state, config) as runner:
            clients = [
                StormClient(runner.port, source, offset)
                for source, offset in zip(range(N_CLIENTS), offsets)
            ]
            ingester = Ingester(runner.port, service_store, N_INGESTS)
            with plan.active():
                ingester.start()
                for client in clients:
                    client.start()
                for client in clients:
                    client.join(timeout=30)
                ingester.join(timeout=30)
            # Shedding never hangs: every thread came back.
            assert not any(c.is_alive() for c in clients)
            assert not ingester.is_alive()
            assert [c for c in clients if c.error] == []
            assert ingester.error is None

            answered = [c for c in clients if c.response is not None]
            shed = [c for c in clients if c.shed is not None]
            failed = [c for c in clients if c.failed is not None]
            # Conservation: every request was answered, explicitly shed
            # or failed by its fault, and the tight capacity forced
            # sheds.  The fault failed one query, once.
            assert len(answered) + len(shed) + len(failed) == N_CLIENTS
            assert answered and shed
            assert all(s.shed.retry_after_ms >= 0 for s in shed)
            assert len(failed) == 1
            assert all("InjectedFault" in str(c.failed) for c in failed)

            with ServiceClient(port=runner.port) as probe:
                status = probe.status()

            # Server-side accounting agrees with what clients saw.
            assert status["server"]["shed"] == len(shed)
            assert status["server"]["errors"] == len(shed) + len(failed)
            assert status["server"]["retried"] == 1  # the healed ingest
            assert status["server"]["queries"] == N_CLIENTS
            gate = status["admission"]["query"]
            assert sum(gate["shed"].values()) == len(shed)
            # Queue depth stayed within the admission bounds.
            policy = config.query_admission
            assert gate["max_depth"] <= policy.max_queue + policy.max_concurrent
            assert gate["waiting"] == 0 and gate["active"] == 0

            # No lost or duplicated ingest: N receipts with strictly
            # consecutive versions, all applied to the live state.
            versions = [r["version"] for r in ingester.receipts]
            assert len(versions) == N_INGESTS
            assert versions == sorted(set(versions))
            assert versions == list(range(versions[0],
                                          versions[0] + N_INGESTS))
            assert status["ingests"] == N_INGESTS
            assert status["poisoned"] is False

            # Post-storm answers are bit-identical to a from-scratch
            # offline evaluation of the final store.
            last = status["num_snapshots"] - 1
            for algorithm, source in (("SSSP", 0), ("BFS", 3)):
                with ServiceClient(port=runner.port) as probe:
                    live = probe.query(algorithm, source)
                expected = offline_values(
                    service_store, service_weights, algorithm, source,
                    0, last,
                )
                assert_values_equal(live["values"], expected)

            # Shed counts are visible in the metrics export.
            export = obs_runtime.registry.render_prometheus()
            shed_samples = [
                line for line in export.splitlines()
                if line.startswith("repro_admission_shed_total{")
            ]
            assert shed_samples
            total = sum(
                float(line.rsplit(" ", 1)[1]) for line in shed_samples
            )
            assert total == len(shed)

            # Graceful exit: drain lands within its deadline with zero
            # abandoned work, then reports not-ready.
            report = runner.drain(timeout=5.0)
            assert report["drained"] is True
            assert report["abandoned_requests"] == 0
            assert report["abandoned_futures"] == 0
