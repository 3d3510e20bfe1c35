"""End-to-end live-tip tests over the wire: the ``update`` op, the
live admission lane, the status block, and the ``repro update`` CLI.
"""

from __future__ import annotations

import io
import json
import threading
import time
from contextlib import redirect_stdout

import pytest

from repro import faults
from repro.cli import main
from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import (
    AdmissionPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
)

from tests.conftest import assert_values_equal
from tests.livetip.conftest import (
    absent_pairs,
    present_pairs,
    reference_tip_values,
)

pytestmark = pytest.mark.livetip


@pytest.fixture
def runner(livetip_state):
    with ServiceRunner(livetip_state) as running:
        yield running


@pytest.fixture
def client(runner):
    with ServiceClient(port=runner.port) as connected:
        yield connected


class TestWireUpdates:
    def test_insert_receipt_over_the_wire(self, livetip_state, client):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        receipt = client.update("insert", u, v)
        assert receipt["ok"] is True
        assert receipt["op"] == "update"
        assert receipt["kind"] == "insert"
        assert receipt["seq"] == 1
        assert receipt["tip_version"] == 4
        assert receipt["overlay_depth"] == 1

    def test_query_sees_the_update_immediately(self, livetip_state, client):
        (u, v) = present_pairs(livetip_state, 1)[0]
        client.update("delete", u, v)
        response = client.query("SSSP", 0)
        assert response["livetip_seq"] == 1
        assert_values_equal(
            response["values"][-1],
            reference_tip_values(livetip_state, "SSSP", 0),
            "wire-patched tip",
        )

    def test_compact_over_the_wire(self, livetip_state, client):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        client.update("insert", u, v)
        receipt = client.update("compact")
        assert receipt["compacted"] is True
        assert receipt["updates_folded"] == 1
        assert receipt["tip_version"] == 5
        assert receipt["overlay_depth"] == 0
        # Clean overlay: the next answer is pure TG, same bits.
        response = client.query("SSSP", 0, first=5, last=5)
        assert "livetip_seq" not in response
        assert_values_equal(
            response["values"][0],
            reference_tip_values(livetip_state, "SSSP", 0),
            "post-fold tip",
        )

    def test_duplicate_insert_is_refused(self, livetip_state, client):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        client.update("insert", u, v)
        response = client.request({"op": "update", "kind": "insert",
                                   "edge": [u, v]})
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"
        # The refusal was not absorbed: depth still 1.
        assert client.status()["livetip"]["overlay_depth"] == 1

    def test_compact_with_edge_dies_client_side(self, client):
        with pytest.raises(ProtocolError):
            client.update("compact", 0, 1)

    def test_malformed_edge_rejected(self, client):
        response = client.request({"op": "update", "kind": "insert",
                                   "edge": [1]})
        assert response["ok"] is False
        assert response["error_type"] == "ProtocolError"

    def test_status_counts_updates(self, livetip_state, client):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        client.update("insert", u, v)
        status = client.status()
        assert status["server"]["updates"] == 1
        block = status["livetip"]
        assert block["enabled"] is True
        assert block["overlay_depth"] == 1
        assert block["updates_total"] == 1

    def test_disabled_livetip_over_the_wire(self, livetip_store,
                                            livetip_weights):
        from repro.service import ServiceState

        state = ServiceState(livetip_store, weight_fn=livetip_weights,
                             livetip=False)
        try:
            with ServiceRunner(state) as runner:
                with ServiceClient(port=runner.port) as client:
                    with pytest.raises(ServiceError):
                        client.update("insert", 0, 1)
                    status = client.status()
            assert status["livetip"]["enabled"] is False
        finally:
            state.close()


class TestLiveLane:
    def test_full_live_queue_sheds_the_second_update(self, livetip_state):
        config = ServiceConfig(live_admission=AdmissionPolicy(
            max_concurrent=1, max_queue=0, queue_timeout=0.05,
        ))
        edges = absent_pairs(livetip_state, 2)
        plan = faults.FaultPlan().delay_service(0.6, match="update:*",
                                                times=1)
        outcomes = []

        def update(edge):
            with ServiceClient(port=runner.port,
                               overload_retries=0) as connected:
                try:
                    outcomes.append(connected.update("insert", *edge))
                except ServiceOverloadedError as exc:
                    outcomes.append(exc)

        with plan.active(), ServiceRunner(livetip_state, config) as runner:
            slow = threading.Thread(target=update, args=(edges[0],))
            slow.start()
            # Give the stalled update time to occupy the single slot.
            time.sleep(0.2)
            update(edges[1])
            slow.join()
        sheds = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        applied = [o for o in outcomes if isinstance(o, dict)]
        assert len(sheds) == 1 and len(applied) == 1
        # A shed update was *not* absorbed: only one edge is pending.
        assert livetip_state.published.livetip.depth == 1


class TestCli:
    def test_update_insert_json(self, livetip_state, runner):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["update", "insert", "--edge", f"{u},{v}",
                         "--connect", f"127.0.0.1:{runner.port}", "--json"])
        assert code == 0
        receipt = json.loads(buffer.getvalue())
        assert receipt["kind"] == "insert"
        assert receipt["seq"] == 1
        assert receipt["overlay_depth"] == 1

    def test_update_compact_renders_summary(self, livetip_state, runner,
                                            capsys):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        assert main(["update", "insert", "--edge", f"{u},{v}",
                     "--connect", f"127.0.0.1:{runner.port}"]) == 0
        assert main(["update", "compact",
                     "--connect", f"127.0.0.1:{runner.port}"]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 update(s)" in out

    def test_update_requires_an_edge(self, capsys):
        assert main(["update", "insert"]) == 2
        assert "requires --edge" in capsys.readouterr().err

    def test_compact_refuses_an_edge(self, capsys):
        assert main(["update", "compact", "--edge", "1,2"]) == 2
        assert "carries no --edge" in capsys.readouterr().err

    def test_info_connect_shows_live_tip(self, livetip_state, runner,
                                         capsys):
        (u, v) = absent_pairs(livetip_state, 1)[0]
        assert main(["update", "insert", "--edge", f"{u},{v}",
                     "--connect", f"127.0.0.1:{runner.port}"]) == 0
        capsys.readouterr()
        assert main(["info", "--connect",
                     f"127.0.0.1:{runner.port}"]) == 0
        out = capsys.readouterr().out
        assert "live tip" in out
        assert "overlay_depth" in out
