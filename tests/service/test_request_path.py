"""Regressions on the unified request path.

Both tests fail at the commit before the path was collapsed: a
coalesced follower used to wait out its leader regardless of its own
``timeout_ms``, and the degraded lane used to refuse a bad request with
a different error than the primary lane.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.faults import FaultPlan

from tests.service.golden import (
    Gate,
    Recorder,
    Replica,
    golden_evolving,
    service_config,
    spin_until,
)

pytestmark = pytest.mark.service


def test_a_coalesced_follower_honours_its_own_timeout(tmp_path):
    query = {"op": "query", "algorithm": "SSSP", "source": 4}

    async def scenario():
        rec = Recorder()
        replica = Replica(tmp_path, "store", golden_evolving(),
                          service_config())
        port = await replica.start()
        try:
            # Injected leader latency: the leader sits in its executor
            # hop until the gate opens.
            gate = Gate(replica.state)
            leader = rec.start(port, query)
            await gate.wait_entered()
            follower = rec.start(port, {**query, "timeout_ms": 50})
            await spin_until(
                lambda: replica.service.counters["coalesced"] == 1)
            # The follower's 50 ms run out long before the leader does.
            late = await asyncio.wait_for(follower, timeout=20)
            gate.release()
            return late, await leader
        finally:
            await replica.stop()

    late, led = asyncio.run(scenario())
    assert late["ok"] is False
    assert late["error_type"] == "DeadlineExceededError"
    # The leader is unaffected by its follower giving up.
    assert led["ok"] is True and led["outcome"] == "ok"


BAD_REQUESTS = [
    {"first": 0, "last": 99},   # out of the window
    {"first": 99},              # first beyond the tip
    {"source": 32},             # out-of-range source
    {"algorithm": "PageRank"},  # unknown algorithm
]


@pytest.mark.parametrize("override", BAD_REQUESTS,
                         ids=lambda o: ",".join(o))
def test_a_bad_request_is_refused_identically_on_every_lane(
    tmp_path, override
):
    request = {"op": "query", "algorithm": "SSSP", "source": 0, **override}
    good = {"op": "query", "algorithm": "SSSP", "source": 1}

    async def scenario():
        rec = Recorder()
        replica = Replica(tmp_path, "store", golden_evolving(),
                          service_config(breaker_failure_threshold=1))
        port = await replica.start()
        try:
            primary = await rec.ask(port, request)
            # Exhausted retries: the request lands on the degraded lane.
            attempts = service_config().retry.max_attempts
            with FaultPlan().fail_service(match="query:*",
                                          times=attempts).active():
                exhausted = await rec.ask(port, request)
            # Trip the planner breaker; the request now fast-fails onto
            # the degraded lane without touching the primary path.
            with FaultPlan().fail_service(match="query:*",
                                          times=attempts).active():
                assert (await rec.ask(port, good))["outcome"] == "degraded"
            breaker_open = await rec.ask(port, request)
            status = await rec.ask(port, {"op": "status"})
            assert status["breakers"]["planner"]["state"] == "open"
            return primary, exhausted, breaker_open
        finally:
            await replica.stop()

    primary, exhausted, breaker_open = asyncio.run(scenario())
    assert primary["ok"] is False
    for degraded in (exhausted, breaker_open):
        assert degraded["error_type"] == primary["error_type"]
        assert degraded["error"] == primary["error"]


def test_the_offline_lane_takes_the_same_optional_range(service_state):
    whole = service_state.query("SSSP", 0)
    offline = service_state.offline_answer("SSSP", 0)
    assert (offline.first, offline.last) == (whole.first, whole.last)
