"""CLI rendering of live status for single services and fleet routers."""

from __future__ import annotations

import pytest

from repro.cli import main

pytestmark = [pytest.mark.service, pytest.mark.fleet]


class TestInfoConnect:
    def test_replica_status_renders_breakers_and_admission(
        self, fleet, capsys
    ):
        replica = fleet.replicas["replica-0"]
        address = f"{fleet.host}:{replica.port}"
        assert main(["info", "--connect", address]) == 0
        out = capsys.readouterr().out
        assert f"status {address}" in out
        assert "live, ready" in out
        assert "circuit breakers" in out
        # The store breaker's row shows its re-probe countdown.
        assert "store" in out and "retry after" in out
        assert "admission" in out
        assert "in rotation" not in out  # a lone replica is not a fleet

    def test_router_status_renders_the_rotation_table(self, fleet, capsys):
        address = f"{fleet.host}:{fleet.router_port}"
        assert main(["info", "--connect", address]) == 0
        out = capsys.readouterr().out
        assert "fleet (tip 4, 3 in rotation)" in out
        for name in ("replica-0", "replica-1", "replica-2"):
            assert name in out
        assert "ready" in out

    def test_json_stays_machine_readable(self, fleet, capsys):
        import json

        address = f"{fleet.host}:{fleet.router_port}"
        assert main(["info", "--json", "--connect", address]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["fleet_version"] == 4

    def test_ejected_replica_shows_its_reason(self, fleet, capsys):
        fleet.router_runner.eject("replica-1", "operator")
        address = f"{fleet.host}:{fleet.router_port}"
        assert main(["info", "--connect", address]) == 0
        out = capsys.readouterr().out
        assert "2 in rotation" in out
        assert "unhealthy" in out
        assert "operator" in out
        fleet.router_runner.probe()


class TestRouteParser:
    def test_route_requires_a_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["route"])
