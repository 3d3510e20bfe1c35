"""Overload protection: admission control, breakers, drain, line caps.

The admission tests drive the controller directly on an event loop; the
integration tests stand up a real server with tiny capacity bounds and
deterministic injected latency, then assert the exact shed/degrade
behaviour over the wire.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro import faults
from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.resilience import Deadline, RetryPolicy
from repro.service import ServiceClient, ServiceConfig, ServiceRunner
from repro.service.admission import AdmissionController, AdmissionPolicy

from tests.service.conftest import valid_batch

pytestmark = pytest.mark.service


# ------------------------------------------------------------- admission

class TestAdmissionPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_concurrent": 0},
        {"max_queue": -1},
        {"queue_timeout": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_retry_after_hint_is_half_the_queue_budget(self):
        assert AdmissionPolicy(queue_timeout=5.0).retry_after_ms() == 2500
        # Never 0: a 0ms hint reads as "retry immediately", which is
        # exactly the stampede the hint exists to prevent.
        assert AdmissionPolicy(queue_timeout=0.0).retry_after_ms() == 1


class TestAdmissionController:
    def run(self, coro):
        return asyncio.run(coro)

    def test_free_slots_admit_even_with_no_waiting_room(self):
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=2, max_queue=0),
            )
            async with admission.slot("query", Deadline.never()):
                async with admission.slot("query", Deadline.never()):
                    return admission.gate("query").snapshot()

        snapshot = self.run(scenario())
        assert snapshot["active"] == 2
        assert snapshot["admitted"] == 2
        assert sum(snapshot["shed"].values()) == 0

    def test_full_waiting_room_sheds_immediately(self):
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=0,
                                      queue_timeout=5.0),
            )
            async with admission.slot("query", Deadline.never()):
                with pytest.raises(ServiceOverloadedError) as info:
                    async with admission.slot("query", Deadline.never()):
                        pass
            return admission.gate("query").snapshot(), info.value

        snapshot, error = self.run(scenario())
        assert snapshot["shed"]["queue_full"] == 1
        assert error.retry_after_ms == 2500

    def test_queue_timeout_sheds_the_waiter(self):
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                      queue_timeout=0.02),
            )
            async with admission.slot("query", Deadline.never()):
                with pytest.raises(ServiceOverloadedError):
                    async with admission.slot("query", Deadline.never()):
                        pass
            return admission.gate("query").snapshot()

        snapshot = self.run(scenario())
        assert snapshot["shed"]["timeout"] == 1
        assert snapshot["max_depth"] >= 1
        assert snapshot["waiting"] == 0  # the waiter was removed

    def test_request_deadline_expires_in_the_queue(self):
        # The request's own budget dying while queued is the caller's
        # deadline problem, not an overload: DeadlineExceededError, not
        # a shed.
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                      queue_timeout=5.0),
            )
            async with admission.slot("query", Deadline.never()):
                with pytest.raises(DeadlineExceededError):
                    async with admission.slot("query",
                                              Deadline.after(0.02)):
                        pass
            return admission.gate("query").snapshot()

        snapshot = self.run(scenario())
        assert sum(snapshot["shed"].values()) == 0

    def test_draining_sheds_with_zero_hint(self):
        async def scenario():
            admission = AdmissionController()
            admission.begin_drain()
            with pytest.raises(ServiceOverloadedError) as info:
                async with admission.slot("query", Deadline.never()):
                    pass
            return admission.snapshot(), info.value

        snapshot, error = self.run(scenario())
        assert snapshot["draining"] is True
        assert snapshot["query"]["shed"]["draining"] == 1
        assert error.retry_after_ms == 0

    def test_release_frees_the_slot_for_the_next_waiter(self):
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=2,
                                      queue_timeout=1.0),
            )
            order = []

            async def worker(tag):
                async with admission.slot("query", Deadline.never()):
                    order.append(tag)
                    await asyncio.sleep(0.01)

            await asyncio.gather(worker("a"), worker("b"))
            return order, admission.total_shed()

        order, shed = self.run(scenario())
        assert sorted(order) == ["a", "b"]
        assert shed == 0

    def test_burst_inside_one_loop_tick_is_bounded(self):
        # Ten arrivals in one loop tick: the first two take the free
        # slots at once, the next two queue (their acquires run a turn
        # later), and the gate's own books shed exactly the other six.
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=2, max_queue=2,
                                      queue_timeout=5.0),
            )
            gate = admission.gate("query")
            release = asyncio.Event()

            async def request():
                try:
                    async with admission.slot("query", Deadline.never()):
                        await release.wait()
                except ServiceOverloadedError:
                    return "shed"
                return "admitted"

            burst = [asyncio.ensure_future(request()) for _ in range(10)]
            for _ in range(100):  # loop ticks, not clock time
                await asyncio.sleep(0)
                if gate.snapshot()["active"] == 2:
                    break
            held = gate.snapshot()
            release.set()
            return held, await asyncio.gather(*burst), gate.snapshot()

        held, outcomes, final = self.run(scenario())
        assert held["active"] == 2
        assert held["waiting"] == 2
        assert held["shed"] == {"queue_full": 6, "timeout": 0, "draining": 0}
        assert held["max_depth"] <= 4
        assert outcomes.count("shed") == 6
        assert final["admitted"] == 4
        assert final["shed"] == held["shed"]
        assert final["waiting"] == final["active"] == 0


# -------------------------------------------------- server integration

def small_capacity_config(**overrides):
    """A config with tiny, deterministic capacity bounds."""
    defaults = dict(
        request_timeout=10.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.005,
                          multiplier=2.0, max_delay=0.02,
                          retry_on=(OSError,)),
        query_admission=AdmissionPolicy(max_concurrent=1, max_queue=0,
                                        queue_timeout=0.5),
        breaker_failure_threshold=2,
        breaker_reset_timeout=0.2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def wire_pairs(edges):
    return [list(pair) for pair in edges]


def query_in_thread(port, source, results, **kwargs):
    def work():
        with ServiceClient(port=port, overload_retries=0) as client:
            results[source] = client.query("SSSP", source, **kwargs)

    thread = threading.Thread(target=work)
    thread.start()
    return thread


class TestOverloadShedding:
    def test_saturated_service_sheds_with_retry_hint(self, service_state):
        config = small_capacity_config()
        plan = faults.FaultPlan(seed=3)
        plan.delay_service(0.4, match="query:SSSP:0*", times=1)
        with ServiceRunner(service_state, config) as runner:
            results = {}
            with plan.active():
                slow = query_in_thread(runner.port, 0, results)
                time.sleep(0.1)  # let the slow query take the only slot
                with ServiceClient(port=runner.port,
                                   overload_retries=0) as client:
                    with pytest.raises(ServiceOverloadedError) as info:
                        client.query("SSSP", 1)
                slow.join()
            assert info.value.retry_after_ms == 250
            assert results[0]["ok"] is True
            with ServiceClient(port=runner.port) as client:
                status = client.status()
        assert status["server"]["shed"] == 1
        assert status["admission"]["query"]["shed"]["queue_full"] == 1

    def test_client_honours_the_hint_and_recovers(self, service_state):
        config = small_capacity_config()
        plan = faults.FaultPlan(seed=3)
        plan.delay_service(0.3, match="query:SSSP:0*", times=1)
        with ServiceRunner(service_state, config) as runner:
            results = {}
            with plan.active():
                slow = query_in_thread(runner.port, 0, results)
                time.sleep(0.1)
                # Shed at first, then the jittered backoff outlives the
                # slow query and the retry is admitted.
                with ServiceClient(port=runner.port, overload_retries=8,
                                   max_retry_sleep=0.1, seed=1) as client:
                    response = client.query("SSSP", 1)
                slow.join()
            assert response["ok"] is True
            with ServiceClient(port=runner.port) as client:
                status = client.status()
        assert status["server"]["shed"] >= 1

    def test_queue_timeout_sheds_a_waiting_query(self, service_state):
        config = small_capacity_config(
            query_admission=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                            queue_timeout=0.05),
        )
        plan = faults.FaultPlan(seed=3)
        plan.delay_service(0.4, match="query:SSSP:0*", times=1)
        with ServiceRunner(service_state, config) as runner:
            results = {}
            with plan.active():
                slow = query_in_thread(runner.port, 0, results)
                time.sleep(0.1)
                with ServiceClient(port=runner.port,
                                   overload_retries=0) as client:
                    with pytest.raises(ServiceOverloadedError):
                        client.query("SSSP", 1)
                slow.join()
            with ServiceClient(port=runner.port) as client:
                status = client.status()
        assert status["admission"]["query"]["shed"]["timeout"] == 1

    def test_client_deadline_dies_in_the_queue(self, service_state):
        # timeout_ms smaller than the queue budget: the request's own
        # deadline expires while it waits, which is reported as a
        # deadline error, not an overload.
        config = small_capacity_config(
            query_admission=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                            queue_timeout=5.0),
        )
        plan = faults.FaultPlan(seed=3)
        plan.delay_service(0.4, match="query:SSSP:0*", times=1)
        with ServiceRunner(service_state, config) as runner:
            results = {}
            with plan.active():
                slow = query_in_thread(runner.port, 0, results)
                time.sleep(0.1)
                with ServiceClient(port=runner.port) as client:
                    response = client.request({
                        "op": "query", "algorithm": "SSSP", "source": 1,
                        "timeout_ms": 50,
                    })
                slow.join()
        assert response["ok"] is False
        assert response["error_type"] == "DeadlineExceededError"
        assert "overloaded" not in response

    def test_timeout_ms_must_be_a_positive_integer(self, service_state):
        with ServiceRunner(service_state) as runner:
            with ServiceClient(port=runner.port) as client:
                for bad in (0, -5, "fast"):
                    response = client.request({
                        "op": "query", "algorithm": "SSSP", "source": 0,
                        "timeout_ms": bad,
                    })
                    assert response["ok"] is False
                    assert response["error_type"] == "ProtocolError"


class TestCircuitBreakers:
    def test_store_breaker_recovers_after_reset_timeout(
        self, service_state
    ):
        config = small_capacity_config()
        plan = faults.FaultPlan(seed=5)
        plan.fail_service(match="ingest:*", times=999)
        with ServiceRunner(service_state, config) as runner:
            with ServiceClient(port=runner.port) as client:
                with plan.active():
                    for _ in range(2):  # two exhausted ingests trip it
                        response = client.request({
                            "op": "ingest",
                            "additions": wire_pairs(valid_batch(
                                service_state.store).additions),
                            "deletions": [],
                        })
                        assert response["error_type"] == "RetryExhaustedError"
                # Fault gone, probe window reached: the next ingest is
                # the half-open probe; its success closes the breaker.
                time.sleep(config.breaker_reset_timeout + 0.05)
                batch = valid_batch(service_state.store)
                receipt = client.ingest(
                    additions=wire_pairs(batch.additions),
                    deletions=wire_pairs(batch.deletions))
                status = client.status()
        assert receipt["ok"] and status["ingests"] == 1
        store = status["breakers"]["store"]
        assert store["state"] == "closed"
        assert store["transitions"] == [
            "closed->open", "open->half_open", "half_open->closed",
        ]

    def test_open_store_breaker_fails_ingests_fast(self, service_state):
        config = small_capacity_config()
        plan = faults.FaultPlan(seed=5)
        plan.fail_service(match="ingest:*", times=999)
        batch = valid_batch(service_state.store)
        additions = [list(pair) for pair in batch.additions]
        with ServiceRunner(service_state, config) as runner:
            with plan.active():
                with ServiceClient(port=runner.port,
                                   overload_retries=0) as client:
                    # Ingest has no fallback: exhausted retries are an
                    # error, and threshold-2 trips the store breaker.
                    for _ in range(2):
                        response = client.request({
                            "op": "ingest", "additions": additions,
                            "deletions": [],
                        })
                        assert response["error_type"] == "RetryExhaustedError"
                    def ingest_checks():
                        return sum(1 for event in plan.events
                                   if event.startswith("ingest:"))

                    checks_before = ingest_checks()
                    response = client.request({
                        "op": "ingest", "additions": additions,
                        "deletions": [],
                    })
                    status = client.status()
                    checks_after = ingest_checks()
        assert response["ok"] is False
        assert response["error_type"] == "CircuitOpenError"
        assert response["retry_after_ms"] > 0
        assert checks_after == checks_before  # no retries burned
        assert status["breakers"]["store"]["state"] == "open"
        assert status["ingests"] == 0  # nothing was applied


class TestLifecycle:
    def test_status_reports_ready_and_health_surfaces(self, service_state):
        with ServiceRunner(service_state) as runner:
            with ServiceClient(port=runner.port) as client:
                status = client.status()
        assert status["lifecycle"] == {
            "live": True, "ready": True, "draining": False,
        }
        assert status["admission"]["query"]["max_concurrent"] == 8
        assert status["admission"]["draining"] is False
        assert set(status["breakers"]) == {"store"}
        for breaker in status["breakers"].values():
            assert breaker["state"] == "closed"
            assert breaker["consecutive_failures"] == 0

    def test_drain_finishes_inflight_work(self, service_state):
        plan = faults.FaultPlan(seed=3)
        plan.delay_service(0.3, match="query:SSSP:0*", times=1)
        runner = ServiceRunner(service_state).start()
        try:
            results = {}
            with plan.active():
                slow = query_in_thread(runner.port, 0, results)
                time.sleep(0.1)
                report = runner.drain(timeout=5.0)
                slow.join()
            assert report["drained"] is True
            assert report["abandoned_requests"] == 0
            assert report["abandoned_futures"] == 0
            # The in-flight query completed with a full answer.
            assert results[0]["ok"] is True
            assert results[0]["values"]
        finally:
            runner.stop()

    def test_drain_is_idempotent(self, service_state):
        runner = ServiceRunner(service_state).start()
        try:
            first = runner.drain(timeout=2.0)
            assert first["drained"] is True
            # A second drain returns the first report instead of
            # re-draining a stopped service.
            assert runner.service is not None
            second = asyncio.run(runner.service.drain())
            assert second["drained"] is True
        finally:
            runner.stop()


class TestLineCap:
    def test_oversized_line_is_rejected_not_buffered(self, service_state):
        config = ServiceConfig(max_line_bytes=1024)
        with ServiceRunner(service_state, config) as runner:
            with socket.create_connection(("127.0.0.1", runner.port),
                                          timeout=5) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"x" * 4096 + b"\n")
                stream.flush()
                line = stream.readline()
                assert b'"ok":false' in line
                assert b"ProtocolError" in line
                assert b"1024" in line
                # The stream cannot resync mid-line: the server hangs up.
                assert stream.readline() == b""
            # ... but the listener survives for the next client.
            with ServiceClient(port=runner.port) as client:
                assert client.ping()
