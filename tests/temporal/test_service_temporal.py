"""The temporal verb end to end: client → server → state → engine.

Covers the acceptance criteria: answers bit-identical to brute-force
per-snapshot offline recomputation, coalescing observable through the
``repro_temporal_*`` metrics (a batch touches the Triangular Grid once
per merged range), epoch behaviour across ingests, and clean rejections
for malformed or out-of-window requests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import ProtocolError, ServiceError
from repro.evolving.version_control import VersionController
from repro.service import ServiceClient, ServiceRunner, ServiceState
from repro.testing import reset_observability

# The service fixtures live next to the service suite; re-exporting
# them here makes this file runnable under `-m temporal` alone.
from tests.service.conftest import (  # noqa: F401
    service_evolving,
    service_state,
    service_store,
    service_weights,
    valid_batch,
)
from tests.temporal.conftest import brute_matrix

pytestmark = [pytest.mark.temporal, pytest.mark.service]


@pytest.fixture
def runner(service_state):
    with ServiceRunner(service_state) as running:
        yield running


@pytest.fixture
def client(runner):
    with ServiceClient(port=runner.port) as connected:
        yield connected


def offline_controller(service_store, service_weights):
    """An independent brute-force oracle over the same store."""
    return VersionController(service_store.load(), weight_fn=service_weights)


class TestBitIdentical:
    def test_all_modes_match_brute_force(self, client, service_store,
                                         service_weights):
        controller = offline_controller(service_store, service_weights)
        n = controller.num_versions
        matrix = brute_matrix(controller, "SSSP", 3, 0, n - 1)
        response = client.temporal("SSSP", 3, [
            {"mode": "point", "as_of": 2},
            {"mode": "timeline", "vertex": 10},
            {"mode": "aggregate", "agg": "mean"},
            {"mode": "aggregate", "agg": "first_reachable"},
            {"mode": "aggregate", "agg": "top_volatile", "k": 5},
            {"mode": "diff", "a": 0, "b": n - 1},
            {"mode": "rollup", "vertex": 10, "agg": "max", "width": 2},
        ])
        assert response["ok"]
        point, timeline, mean, first_reach, volatile, diff, rollup = (
            response["results"]
        )
        np.testing.assert_array_equal(point["values"], matrix[2])
        np.testing.assert_array_equal(timeline["values"], matrix[:, 10])
        np.testing.assert_array_equal(mean["values"], matrix.mean(axis=0))
        reach = matrix != np.inf
        expected_first = reach.argmax(axis=0).astype(np.int64)
        expected_first[~reach.any(axis=0)] = -1
        np.testing.assert_array_equal(first_reach["values"], expected_first)
        counts = (matrix[1:] != matrix[:-1]).sum(axis=0)
        vertices = np.arange(counts.size)
        order = np.lexsort((vertices, -counts))[:5]
        np.testing.assert_array_equal(volatile["vertices"], vertices[order])
        np.testing.assert_array_equal(volatile["counts"], counts[order])
        changed = matrix[0] != matrix[-1]
        delta = np.zeros(matrix.shape[1])
        delta[changed] = matrix[-1][changed] - matrix[0][changed]
        np.testing.assert_array_equal(diff["delta"], delta)
        windows = np.lib.stride_tricks.sliding_window_view(matrix[:, 10], 2)
        np.testing.assert_array_equal(rollup["values"], windows.max(axis=1))

    def test_temporal_point_matches_query_op(self, client):
        point = client.temporal("BFS", 0, {"mode": "point", "as_of": 3})
        query = client.query("BFS", 0, first=3, last=3)
        np.testing.assert_array_equal(
            point["results"][0]["values"], query["values"][0]
        )


class TestCoalescingObservable:
    @pytest.fixture
    def obs_runtime(self):
        runtime = obs.configure(sample_rate=1.0)
        yield runtime
        reset_observability()

    def test_batch_scans_once_per_merged_range(self, obs_runtime,
                                               service_store,
                                               service_weights):
        state = ServiceState(service_store, weight_fn=service_weights)
        try:
            with ServiceRunner(state) as runner:
                with ServiceClient(port=runner.port) as connected:
                    response = connected.temporal("SSSP", 0, [
                        {"mode": "point", "as_of": 0},
                        {"mode": "point", "as_of": 1},
                        {"mode": "point", "as_of": 2},   # 0..2 coalesces
                        {"mode": "diff", "a": 0, "b": 4},  # 4 alone; gap at 3
                    ])
        finally:
            state.close()
        assert response["ranges_evaluated"] == 2
        assert response["snapshots_scanned"] == 4  # 0,1,2 + 4 — never 3
        scanned = obs_runtime.registry.get(
            "repro_temporal_snapshots_scanned_total"
        ).default()
        assert scanned.value == 4.0
        modes = obs_runtime.registry.get("repro_temporal_queries_total")
        assert modes.labels(mode="point").value == 3.0
        assert modes.labels(mode="diff").value == 1.0
        widths = obs_runtime.registry.get("repro_temporal_range_width")
        histogram = widths.default()
        assert histogram.count == 2  # one observation per merged range
        assert histogram.sum == 4.0  # widths 3 + 1

    def test_temporal_spans_nest_under_server(self, obs_runtime,
                                              service_store,
                                              service_weights):
        state = ServiceState(service_store, weight_fn=service_weights)
        try:
            with ServiceRunner(state) as runner:
                with ServiceClient(port=runner.port) as connected:
                    response = connected.temporal(
                        "BFS", 0, {"mode": "aggregate", "agg": "min"}
                    )
        finally:
            state.close()
        spans = [span for span in obs_runtime.tracer.recent()
                 if span.trace_id == response["trace_id"]]
        names = {span.name for span in spans}
        assert {"server.temporal", "temporal.plan", "temporal.evaluate",
                "temporal.aggregate"} <= names
        (root,) = [span for span in spans if span.parent_id is None]
        assert root.name == "server.temporal"


class TestEpochAndIngest:
    def test_ingest_bumps_epoch_and_window(self, client, service_store):
        before = client.temporal("BFS", 0, {"mode": "aggregate",
                                            "agg": "min"})
        batch = valid_batch(service_store)
        client.ingest(
            additions=[list(pair) for pair in batch.additions],
            deletions=[list(pair) for pair in batch.deletions],
        )
        after = client.temporal("BFS", 0, {"mode": "aggregate",
                                           "agg": "min"})
        assert after["epoch"] == before["epoch"] + 1
        assert after["window_last"] == before["window_last"] + 1

    def test_new_version_queryable_as_point(self, client, service_store,
                                            service_weights):
        batch = valid_batch(service_store)
        receipt = client.ingest(
            additions=[list(pair) for pair in batch.additions],
            deletions=[list(pair) for pair in batch.deletions],
        )
        version = receipt["version"]
        response = client.temporal("SSSP", 0,
                                   {"mode": "point", "as_of": version})
        controller = offline_controller(service_store, service_weights)
        expected = brute_matrix(controller, "SSSP", 0, version, version)[0]
        np.testing.assert_array_equal(
            response["results"][0]["values"], expected
        )

    def test_as_of_timestamp_resolves_ingest_order(self, service_store,
                                                   service_weights):
        clock = [100.0]
        state = ServiceState(service_store, weight_fn=service_weights,
                             time_fn=lambda: clock[0])
        try:
            with ServiceRunner(state) as runner:
                with ServiceClient(port=runner.port) as connected:
                    clock[0] = 200.0
                    batch = valid_batch(service_store)
                    receipt = connected.ingest(
                        additions=[list(p) for p in batch.additions],
                        deletions=[list(p) for p in batch.deletions],
                    )
                    old = connected.temporal(
                        "BFS", 0, {"mode": "point", "as_of_timestamp": 150.0}
                    )
                    new = connected.temporal(
                        "BFS", 0, {"mode": "point", "as_of_timestamp": 250.0}
                    )
        finally:
            state.close()
        # At t=150 only the pre-existing snapshots (stamped 100) exist;
        # the ingested version (stamped 200) answers the later question.
        assert old["results"][0]["version"] == receipt["version"] - 1
        assert new["results"][0]["version"] == receipt["version"]


class TestFailureHandling:
    def test_out_of_window_range_is_protocol_error(self, client):
        with pytest.raises(ServiceError, match="ProtocolError"):
            client.request_ok({
                "op": "temporal", "algorithm": "BFS", "source": 0,
                "queries": [{"mode": "point", "as_of": 99}],
            })

    def test_malformed_spec_rejected_before_send(self, client):
        with pytest.raises(ProtocolError, match="reversed"):
            client.temporal("BFS", 0, {
                "mode": "timeline", "vertex": 0, "first": 3, "last": 1,
            })

    def test_unknown_algorithm_is_clean_error(self, client):
        with pytest.raises(ServiceError):
            client.temporal("PageRank", 0, {"mode": "point", "as_of": 0})
