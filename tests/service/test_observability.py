"""End-to-end observability of the live service.

The tentpole acceptance scenario: with ``repro.obs`` configured, every
service query produces exactly one trace whose spans nest server →
planner → schedule edges → per-hop kernels, request counts and cache
statistics surface in the Prometheus export, and the ``status`` payload
reports the runtime's health.  Telemetry never fails the request it
describes.
"""

from __future__ import annotations

import errno

import pytest

from repro import obs
from repro.core.steiner import build_schedule
from repro.core.triangular_grid import TriangularGrid
from repro.obs import read_spans
from repro.service import ServiceClient, ServiceRunner, ServiceState
from repro.testing import reset_observability

from tests.service.conftest import valid_batch

pytestmark = [pytest.mark.service, pytest.mark.obs]


@pytest.fixture
def obs_runtime(tmp_path):
    runtime = obs.configure(
        sample_rate=1.0, span_sink=tmp_path / "spans.jsonl"
    )
    yield runtime
    reset_observability()


@pytest.fixture
def obs_state(service_store, service_weights, obs_runtime):
    state = ServiceState(service_store, weight_fn=service_weights)
    unsubscribe = state.register_metrics()
    yield state
    unsubscribe()
    state.close()


@pytest.fixture
def runner(obs_state):
    with ServiceRunner(obs_state) as running:
        yield running


@pytest.fixture
def client(runner):
    with ServiceClient(port=runner.port) as connected:
        yield connected


def trace_spans(runtime, trace_id):
    return [
        span for span in runtime.tracer.recent()
        if span.trace_id == trace_id
    ]


class TestQueryTraces:
    def test_one_nested_trace_per_query(self, client, obs_runtime, obs_state,
                                        tmp_path):
        response = client.query("BFS", source=0)
        trace_id = response["trace_id"]
        spans = trace_spans(obs_runtime, trace_id)
        names = {span.name for span in spans}
        # Server → planner → schedule sweeps → one kernel call each, one trace.
        assert {
            "server.query", "planner.evaluate", "planner.root",
            "kernel.static_compute", "planner.sweep",
            "kernel.incremental_additions",
        } <= names
        sweeps = [span for span in spans if span.name == "planner.sweep"]
        assert all(s.attributes["edges"] >= 1 and "hits" not in s.attributes
                   for s in sweeps)
        # A cold answer computes every snapshot: one sweep per level of
        # the default tree, one edge per node below its root.
        assert response["node_misses"] == len(response["values"])
        tree = build_schedule(
            TriangularGrid(obs_state.published.decomposition), "work-sharing")
        assert len(sweeps) == len(list(tree.levels()))
        assert sum(s.attributes["edges"] for s in sweeps) == len(tree.parent)
        by_id = {span.span_id: span for span in spans}
        (root,) = [span for span in spans if span.parent_id is None]
        assert root.name == "server.query"
        assert "outcome" not in root.attributes
        for span in spans:
            if span is not root:
                assert span.parent_id in by_id  # fully connected tree
        # The planner evaluation runs under the server span even though
        # it executes on an executor thread.
        (evaluate,) = [s for s in spans if s.name == "planner.evaluate"]
        assert by_id[evaluate.parent_id].name == "server.query"
        # Every span also reached the JSONL sink.
        exported, _ = read_spans(tmp_path / "spans.jsonl")
        assert {
            doc["span_id"] for doc in exported
            if doc["trace_id"] == trace_id
        } == set(by_id)

    def test_cached_query_is_a_single_hit_span(self, client, obs_runtime):
        first = client.query("BFS", source=0)
        second = client.query("BFS", source=0)
        assert second["from_cache"] is True
        assert second["trace_id"] != first["trace_id"]
        (root,) = [span for span in trace_spans(obs_runtime,
                                                first["trace_id"])
                   if span.parent_id is None]
        assert root.attributes["wire"] == "encoded"
        spans = trace_spans(obs_runtime, second["trace_id"])
        assert [span.name for span in spans] == ["server.query"]
        assert spans[0].attributes["result_cache"] == "hit"
        assert spans[0].attributes["wire"] == "cached"

    def test_distinct_queries_get_distinct_traces(self, client, obs_runtime):
        first = client.query("BFS", source=0)
        second = client.query("SSSP", source=1)
        assert first["trace_id"] != second["trace_id"]
        for response in (first, second):
            assert trace_spans(obs_runtime, response["trace_id"])


class TestMetricsFlow:
    def test_prometheus_export_covers_the_acceptance_surface(
        self, client, obs_runtime
    ):
        client.query("BFS", source=0)
        client.query("BFS", source=0)  # cache hit
        text = obs_runtime.registry.render_prometheus()
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        assert float(lines['repro_requests_total{op="query"}']) == 2.0
        # The scrape-time collector refreshed the cache gauges: one hit,
        # one miss on the result cache.
        assert float(lines['repro_cache_hit_rate{cache="result"}']) == 0.5
        assert float(lines['repro_cache_hits{cache="result"}']) == 1.0
        assert float(lines['repro_cache_misses{cache="result"}']) == 1.0
        # Entries count every slot: the answer and the query's root.
        assert float(lines['repro_cache_entries{cache="result"}']) == 2.0
        assert "repro_query_seconds_bucket" in text

    def test_ingest_updates_store_and_state_metrics(
        self, client, obs_runtime, service_store
    ):
        batch = valid_batch(service_store, n_add=2, n_del=1)
        client.ingest(
            additions=[[int(u), int(v)]
                       for u, v in zip(*batch.additions.arrays())],
            deletions=[[int(u), int(v)]
                       for u, v in zip(*batch.deletions.arrays())],
        )
        registry = obs_runtime.registry
        appends = registry.get("repro_store_appends_total").default()
        assert appends.value == 1.0
        requests = registry.get("repro_requests_total")
        assert requests.labels(op="ingest").value == 1.0
        snapshot = registry.snapshot()  # runs the state collector
        assert snapshot["repro_epoch"]["series"][0]["value"] == 1.0
        assert snapshot["repro_ingests"]["series"][0]["value"] == 1.0
        assert snapshot["repro_poisoned"]["series"][0]["value"] == 0.0
        names = {
            span.name for span in obs_runtime.tracer.recent()
        }
        assert {"server.ingest", "store.append", "state.extend"} <= names

    def test_extend_span_says_what_the_ingest_did(
        self, obs_runtime, service_store, service_weights
    ):
        state = ServiceState(service_store, weight_fn=service_weights,
                             window=3)
        try:
            before = state.published.decomposition
            batch = valid_batch(service_store, n_add=3, n_del=2)
            state.ingest(batch)
            after = state.published.decomposition
        finally:
            state.close()
        (span,) = [s for s in obs_runtime.tracer.recent()
                   if s.name == "state.extend"]
        departed = len(batch.deletions & before.common)
        assert span.attributes["batch_size"] == 5
        assert span.attributes["dropped"] == 1
        assert span.attributes["departed"] == departed > 0
        assert span.attributes["rejoined"] == len(
            after.common - (before.common - batch.deletions)) > 0

    def test_status_payload_reports_the_runtime(self, client):
        status = client.status()
        description = status["observability"]
        assert description["enabled"] is True
        assert description["sample_rate"] == 1.0
        assert description["metric_families"] > 0


class TestDisabledService:
    def test_service_runs_clean_without_a_runtime(
        self, service_store, service_weights
    ):
        reset_observability()
        state = ServiceState(service_store, weight_fn=service_weights)
        unsubscribe = state.register_metrics()  # no-op while disabled
        try:
            with ServiceRunner(state) as running:
                with ServiceClient(port=running.port) as client:
                    response = client.query("BFS", source=0)
                    assert "trace_id" not in response
                    assert client.status()["observability"] == {
                        "enabled": False
                    }
        finally:
            unsubscribe()
            state.close()


class FullSink:
    """A span sink on a full disk: every write raises ``ENOSPC``."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


class TestFailingSink:
    def test_a_failing_span_sink_drops_the_line_not_the_request(
        self, service_state
    ):
        obs.configure(sample_rate=1.0, span_sink=FullSink())
        try:
            with ServiceRunner(service_state) as runner:
                with ServiceClient(port=runner.port) as client:
                    reply = client.request({"op": "query",
                                            "algorithm": "BFS",
                                            "source": 0})
                    status = client.status()
        finally:
            reset_observability()
        assert reply["ok"] is True and "values" in reply
        assert status["server"]["errors"] == 0
        described = status["observability"]
        assert described["spans_dropped"] >= 1
        assert described["spans_dropped"] == described["spans_exported"]
