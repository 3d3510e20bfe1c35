"""The status keys the benchmark harness reads (``benchmarks/perf/worker.py``).

The harness is frozen; it reads these paths from a replica's and a
router's ``status`` after every round.  A change that drops or renames
one fails here, not as a crashed benchmark round.
"""

from __future__ import annotations

from numbers import Real

import pytest

from repro.fleet import FleetSupervisor
from repro.service import ServiceClient, ServiceRunner, ServiceState


def number(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def counts(value):
    return isinstance(value, dict) and all(map(number, value.values()))


#: Per replica: ``(path, what its value must be)``.
REPLICA_KEYS = [
    (("admission", "totals", "shed"), counts),
    (("admission", "totals", "max_depth"), number),
    (("server", "coalesced"), number),
    (("server", "retried"), number),
    (("server", "degraded"), number),
    (("epoch",), number),
    *((("result_cache", key), number) for key in ("hits", "misses", "evictions")),
    *((("node_cache", key), number) for key in ("hits", "misses", "evictions")),
    (("livetip", "compactions"), number),
]

#: Per router (the harness takes the two collections' sizes).
ROUTER_KEYS = [
    (("server", "failovers"), number),
    (("fleet", "replicas"), lambda value: isinstance(value, dict)),
    (("fleet", "rotation"), lambda value: isinstance(value, list)),
]


def assert_readable(status, keys):
    __tracebackhide__ = True
    for path, check in keys:
        value = status
        for key in path:
            assert key in value, f"status lacks {'.'.join(path)}"
            value = value[key]
        assert check(value), (path, value)


@pytest.mark.service
def test_a_replica_status_has_what_the_harness_reads(service_store,
                                                     service_weights):
    state = ServiceState(service_store, weight_fn=service_weights)
    try:
        with ServiceRunner(state) as runner, \
                ServiceClient(port=runner.port) as client:
            client.query("BFS", 0)
            client.query("BFS", 0, first=1, last=3)
            status = client.status()
    finally:
        state.close()
    assert_readable(status, REPLICA_KEYS)
    assert (status["node_cache"]["hits"], status["node_cache"]["misses"]) \
        == (3, 5)


@pytest.mark.service
@pytest.mark.fleet
def test_a_router_status_has_what_the_harness_reads(tmp_path, service_store,
                                                    service_weights):
    with FleetSupervisor(service_store.directory, tmp_path / "fleet",
                         replicas=3, weight_fn=service_weights) as fleet:
        with fleet.client() as client:
            client.query("BFS", 0)
            status = client.status()
        for name in fleet.replicas:
            with fleet.replica_client(name) as replica:
                assert_readable(replica.status(), REPLICA_KEYS)
    assert_readable(status, ROUTER_KEYS)
    assert sorted(status["fleet"]["rotation"]) == sorted(
        status["fleet"]["replicas"])
