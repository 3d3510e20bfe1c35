"""Regressions on the unified request path.

A coalesced follower honours its own ``timeout_ms`` rather than waiting
out its leader, and a bad request is refused with the same error
whichever way through the server it takes.
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
    assert led["ok"] is True and "values" in led


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
    """A query first probes the result cache on the event loop, unless a
    fault plan is active; a refusal reads the same whether it passed the
    probe or not, and a faulted read before it changes nothing."""
    request = {"op": "query", "algorithm": "SSSP", "source": 0, **override}
    good = {"op": "query", "algorithm": "SSSP", "source": 1}

    async def scenario():
        rec = Recorder()
        replica = Replica(tmp_path, "store", golden_evolving(),
                          service_config())
        port = await replica.start()
        try:
            probed = await rec.ask(port, request)
            # An active plan sends every query through the executor.
            with FaultPlan().fail_service(match="ingest:*").active():
                hopped = await rec.ask(port, request)
            with FaultPlan().fail_service(match="query:*").active():
                assert (await rec.ask(port, good))["ok"] is False
            after_fault = await rec.ask(port, request)
            return probed, hopped, after_fault
        finally:
            await replica.stop()

    probed, hopped, after_fault = asyncio.run(scenario())
    assert probed["ok"] is False
    for refused in (hopped, after_fault):
        assert refused["error_type"] == probed["error_type"]
        assert refused["error"] == probed["error"]
