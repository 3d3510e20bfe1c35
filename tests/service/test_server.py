"""End-to-end tests of the live query service over its TCP protocol.

The acceptance smoke test mirrors the paper's offline evaluation: every
vector a live server returns must be bit-identical to what the naive
oracle (static compute on the materialised snapshot) gives, across
concurrent clients, cache hits, coalesced requests and epoch changes.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import faults
from repro.algorithms.registry import get_algorithm
from repro.cli import main
from repro.core.results import decode_float_row
from repro.fleet import RouterConfig
from repro.resilience import CircuitBreaker
from repro.service import ServiceClient, ServiceConfig, ServiceRunner, protocol
from repro.service.admission import AdmissionPolicy

from tests.conftest import assert_values_equal, oracle_values, state_oracle
from tests.service.conftest import valid_batch

pytestmark = pytest.mark.service


@pytest.fixture
def runner(service_state):
    with ServiceRunner(service_state) as running:
        yield running


@pytest.fixture
def client(runner):
    with ServiceClient(port=runner.port) as connected:
        yield connected


def offline_values(store, weight_fn, algorithm, source, first, last):
    """The reference answer: the naive oracle on the stored snapshots."""
    return oracle_values(store.load(), get_algorithm(algorithm), source,
                         first, last, weight_fn)


def info_json(port):
    """The health payload as ``repro info --json --connect`` reports it."""
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["info", "--json", "--connect", f"127.0.0.1:{port}"])
    assert code == 0
    return json.loads(buffer.getvalue())


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping()

    def test_status_payload(self, client):
        status = client.status()
        assert status["serving"] is True
        assert status["epoch"] == 0
        assert status["num_snapshots"] == 5
        assert status["wire_version"] == protocol.WIRE_VERSION == 2
        assert set(status["server"]) >= {
            "connections", "requests", "queries", "coalesced", "ingests",
            "retried", "degraded", "errors",
        }

    def test_request_id_echoed(self, client):
        response = client.request({"op": "ping", "id": 42})
        assert response["id"] == 42

    def test_shutdown_stops_server(self, service_state):
        runner = ServiceRunner(service_state).start()
        with ServiceClient(port=runner.port) as client:
            client.shutdown()
        runner._thread.join(timeout=10)
        assert not runner._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", runner.port), timeout=1)


@pytest.mark.parametrize("config", [ServiceConfig, RouterConfig])
@pytest.mark.parametrize("timeout", [0, -1.0])
def test_a_request_timeout_is_positive_or_none(config, timeout):
    # A zero budget would expire every miss, ingest and update unserved.
    with pytest.raises(ValueError, match="request_timeout"):
        config(request_timeout=timeout)
    assert config(request_timeout=None).request_timeout is None


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("owner, field, value", [
    (CircuitBreaker, "reset_timeout", NAN),
    (CircuitBreaker, "reset_timeout", INF),
    (AdmissionPolicy, "queue_timeout", NAN),
    (AdmissionPolicy, "queue_timeout", INF),
    (ServiceConfig, "request_timeout", INF),
    (ServiceConfig, "drain_timeout", INF),
    (ServiceConfig, "breaker_reset_timeout", INF),
    (RouterConfig, "request_timeout", INF),
    (RouterConfig, "connect_timeout", 0.0),
    (RouterConfig, "connect_timeout", INF),
    (RouterConfig, "breaker_reset_timeout", INF),
    (RouterConfig, "probe_interval_s", INF),
    (ServiceConfig, "drain_timeout", -1.0),
    (ServiceConfig, "drain_timeout", NAN),
    (ServiceConfig, "breaker_reset_timeout", -1.0),
    (ServiceConfig, "breaker_reset_timeout", NAN),
    (RouterConfig, "breaker_reset_timeout", -1.0),
    (RouterConfig, "breaker_reset_timeout", NAN),
    (RouterConfig, "probe_interval_s", 0.0),
    (RouterConfig, "probe_interval_s", -1.0),
    (RouterConfig, "probe_interval_s", NAN),
])
def test_a_timing_setting_refuses_nan_and_out_of_range(owner, field, value):
    # NaN compares false both ways, so only `not x >= 0` refuses it; a
    # zero probe interval would re-probe every replica back to back.
    # Infinity is refused too (None says "unbounded"): a hint derived
    # from it, int(inf * 1000), raises OverflowError.
    with pytest.raises(ValueError, match=field):
        owner(**{field: value})


class TestErrors:
    def test_malformed_json_line(self, runner):
        with socket.create_connection(("127.0.0.1", runner.port)) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"{broken\n")
            handle.flush()
            response = json.loads(handle.readline())
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"

    def test_unknown_op(self, client):
        response = client.request({"op": "explode"})
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"

    def test_unknown_algorithm(self, client):
        response = client.request({"op": "query", "algorithm": "Nope",
                                   "source": 0})
        assert response["ok"] is False
        assert response["error_type"] == "AlgorithmError"

    def test_range_outside_window(self, client):
        # A request naming versions the window cannot answer is a client
        # mistake: ProtocolError, like every other bad-range rejection.
        response = client.request({"op": "query", "algorithm": "BFS",
                                   "source": 0, "first": 0, "last": 99})
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"
        assert "outside the window" in response["error"]

    def test_empty_ingest(self, client):
        response = client.request({"op": "ingest", "additions": [],
                                   "deletions": []})
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"

    def test_errors_do_not_kill_the_connection(self, client):
        client.request({"op": "explode"})
        assert client.ping()

    def test_failed_query_counts_one_error(self, runner, client):
        """A failing query is one failure: the coalescing leader's
        shared error payload must not bump the counter a second time."""
        response = client.request({"op": "query", "algorithm": "Nope",
                                   "source": 0})
        assert response["ok"] is False
        assert runner.service.counters["errors"] == 1


class TestEndToEnd:
    def test_acceptance_smoke(self, service_store, service_state, runner,
                              service_weights):
        """The PR's acceptance scenario, in order: ingest, concurrent
        range queries bit-identical to the offline evaluator, a cache
        hit observable through ``repro info --json``, and an ingest
        that bumps the epoch and invalidates the cache."""
        endpoint = runner.port

        # -- ingest one batch through the wire ---------------------------
        batch = valid_batch(service_store, n_add=3, n_del=2)
        with ServiceClient(port=endpoint) as client:
            receipt = client.ingest(
                additions=[[int(u), int(v)]
                           for u, v in zip(*batch.additions.arrays())],
                deletions=[[int(u), int(v)]
                           for u, v in zip(*batch.deletions.arrays())],
            )
        assert receipt["version"] == 5
        assert receipt["epoch"] == 1

        # -- concurrent range queries ------------------------------------
        queries = [
            ("BFS", 0, 0, 5), ("SSSP", 0, 1, 4), ("SSWP", 3, 2, 5),
            ("SSSP", 1, 0, 3), ("BFS", 2, 3, 5),
        ]
        responses = [None] * len(queries)
        errors = []

        def issue(slot, algorithm, source, first, last):
            try:
                with ServiceClient(port=endpoint) as local:
                    responses[slot] = local.query(algorithm, source,
                                                  first, last)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=issue, args=(slot, *query))
            for slot, query in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for (algorithm, source, first, last), response in zip(queries,
                                                              responses):
            assert response is not None
            assert response["ok"]
            expected = offline_values(service_store, service_weights,
                                      algorithm, source, first, last)
            assert len(response["values"]) == last - first + 1
            for version, (got, want) in enumerate(
                zip(response["values"], expected)
            ):
                assert_values_equal(
                    got, want,
                    f"{algorithm} from {source} on {first}..{last} "
                    f"v{first + version}",
                )

        # -- a repeat query is served from the result cache ---------------
        hits_before = info_json(endpoint)["result_cache"]["hits"]
        with ServiceClient(port=endpoint) as client:
            repeat = client.query("BFS", 0, 0, 5)
        assert repeat["from_cache"] is True
        expected = offline_values(service_store, service_weights,
                                  "BFS", 0, 0, 5)
        for got, want in zip(repeat["values"], expected):
            assert_values_equal(got, want, "cached BFS")
        health = info_json(endpoint)
        assert health["result_cache"]["hits"] == hits_before + 1
        assert health["epoch"] == 1

        # -- ingest bumps the epoch and invalidates the cache -------------
        batch = valid_batch(service_store, n_add=2, n_del=1)
        with ServiceClient(port=endpoint) as client:
            receipt = client.ingest(
                additions=[[int(u), int(v)]
                           for u, v in zip(*batch.additions.arrays())],
                deletions=[[int(u), int(v)]
                           for u, v in zip(*batch.deletions.arrays())],
            )
            assert receipt["epoch"] == 2
            fresh = client.query("BFS", 0, 0, 5)
        assert fresh["from_cache"] is False
        assert fresh["epoch"] == 2
        expected = offline_values(service_store, service_weights,
                                  "BFS", 0, 0, 5)
        for got, want in zip(fresh["values"], expected):
            assert_values_equal(got, want, "post-ingest BFS")
        assert info_json(endpoint)["result_cache"]["invalidations"] > 0


class TestCoalescing:
    def test_identical_inflight_queries_share_one_execution(
        self, service_state, monkeypatch
    ):
        """Concurrent identical queries run the planner once; followers
        receive the leader's payload flagged ``coalesced``."""
        calls = []
        original = service_state.query

        def slow_query(*args, **kwargs):
            calls.append(args)
            time.sleep(0.4)  # hold the leader so followers pile up
            return original(*args, **kwargs)

        monkeypatch.setattr(service_state, "query", slow_query)
        with ServiceRunner(service_state) as runner:
            responses = []

            def issue():
                with ServiceClient(port=runner.port) as client:
                    responses.append(client.query("SSSP", 0, 0, 4))

            threads = [threading.Thread(target=issue) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            counters = dict(runner.service.counters)
        assert len(responses) == 4
        assert len(calls) == 1, "identical in-flight queries must coalesce"
        assert counters["coalesced"] == 3
        assert sum(bool(r.get("coalesced")) for r in responses) == 3
        reference = responses[0]["values"]
        for response in responses[1:]:
            for got, want in zip(response["values"], reference):
                assert_values_equal(got, want, "coalesced answer")


class TestResilience:
    def test_a_faulted_read_answers_its_error_and_changes_nothing(
        self, service_state
    ):
        """A read is a pure function of its captured view: an injected
        fault fails that one request with the fault's error reply (no
        retry, no fallback), moves no epoch or overlay seq, and the next
        identical read answers the naive oracle bit for bit."""
        (u, v), = zip(*valid_batch(service_state.store, n_add=1,
                                   n_del=0).additions.arrays())
        service_state.update("insert", int(u), int(v))  # a patched tip
        tip = service_state.latest_version
        query = {"op": "query", "algorithm": "SSSP", "source": 2}
        specs = [{"mode": "point", "as_of": tip},
                 {"mode": "point", "as_of": 1}]
        temporal = {"op": "temporal", "algorithm": "BFS", "source": 1,
                    "queries": specs}
        with ServiceRunner(service_state) as runner:
            with ServiceClient(port=runner.port) as client:
                before = client.status()
                faulted, checks = [], []
                for request in (query, temporal):
                    plan = faults.FaultPlan().fail_service(
                        match=f"{request['op']}:*", times=1)
                    with plan.active():
                        faulted.append(client.request(request))
                    checks.append(len(plan.events))
                after = client.status()
                again = client.query("SSSP", 2)
                points = client.temporal("BFS", 1, specs)["results"]
            counters = dict(runner.service.counters)
        for reply in faulted:
            assert reply["ok"] is False
            assert reply["error_type"] == "InjectedFault"
        assert checks == [1, 1]  # one attempt each
        assert (counters["retried"], counters["degraded"]) == (0, 0)
        assert (after["epoch"], after["ingests"]) == (before["epoch"],
                                                     before["ingests"])
        assert after["livetip"]["updates_total"] == 1
        assert service_state.published.livetip.seq == 1
        want = state_oracle(service_state, "SSSP", 2)
        assert len(again["values"]) == len(want)
        for got, expected in zip(again["values"], want):
            assert_values_equal(got, expected, "query after its fault")
        bfs = state_oracle(service_state, "BFS", 1)
        assert_values_equal(points[0]["values"], bfs[tip], "tip point")
        assert_values_equal(points[1]["values"], bfs[1], "history point")

    def test_deadline_expiry_is_not_retried(self, service_state,
                                            monkeypatch):
        """A wait_for timeout must surface as DeadlineExceededError, not
        feed the retry policy (TimeoutError is an OSError subclass on
        3.11+) — retrying would race a duplicate attempt against the
        still-running executor task."""
        calls = []
        original = service_state.query

        def slow_query(*args, **kwargs):
            calls.append(args)
            time.sleep(0.5)
            return original(*args, **kwargs)

        monkeypatch.setattr(service_state, "query", slow_query)
        config = ServiceConfig(request_timeout=0.1)
        with ServiceRunner(service_state, config) as runner:
            with ServiceClient(port=runner.port) as client:
                response = client.request({"op": "query",
                                           "algorithm": "BFS",
                                           "source": 0})
            counters = dict(runner.service.counters)
        assert response["ok"] is False
        assert response["error_type"] == "DeadlineExceededError"
        assert counters["retried"] == 0
        assert counters["degraded"] == 0
        assert len(calls) == 1, "deadline expiry must not spawn duplicates"

    def test_ingest_fault_is_retried(self, service_store, service_state):
        plan = faults.FaultPlan().fail_service(match="ingest:*", times=1)
        batch = valid_batch(service_store)
        with plan.active(), ServiceRunner(service_state) as runner:
            with ServiceClient(port=runner.port) as client:
                receipt = client.ingest(
                    additions=[[int(u), int(v)]
                               for u, v in zip(*batch.additions.arrays())],
                    deletions=[[int(u), int(v)]
                               for u, v in zip(*batch.deletions.arrays())],
                )
        assert receipt["ok"] and receipt["version"] == 5
        assert service_state.published.epoch == 1


class TestCLIAgainstLiveServer:
    def test_query_command_renders_table(self, runner, capsys):
        code = main([
            "query", "--connect", f"127.0.0.1:{runner.port}",
            "--algorithm", "BFS", "--source", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BFS from 0" in out
        assert "version" in out

    def test_query_command_json(self, runner, capsys, service_store,
                                service_weights):
        # SSWP's source value is +inf: it must not print like an
        # unreached vertex (the old output spelled both as null).
        for algorithm in ("SSSP", "SSWP"):
            code = main([
                "query", "--connect", f"127.0.0.1:{runner.port}",
                "--algorithm", algorithm, "--source", "1", "--json",
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] is True
            assert payload["algorithm"] == algorithm
            # One dense row per snapshot, in the documented row spelling.
            expected = offline_values(service_store, service_weights,
                                      algorithm, 1, 0, 4)
            assert len(payload["values"]) == len(expected) == 5
            for row, want in zip(payload["values"], expected):
                assert_values_equal(decode_float_row(row), want, algorithm)
        assert payload["values"][0][1] == "inf"

    def test_query_command_reports_server_errors(self, runner, capsys):
        code = main([
            "query", "--connect", f"127.0.0.1:{runner.port}",
            "--algorithm", "Nope", "--source", "0",
        ])
        assert code != 0
