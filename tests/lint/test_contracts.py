"""The project-wide contract rules, driven by synthetic fixture projects.

Each test seeds one specific drift — missing handler, missing routing
method, phantom op, dead instrument, label mismatch, docs skew — and
asserts it is caught by
exactly the intended rule, at the intended layer.  The clean fixtures
double as negative controls: a coherent project must produce zero
contract findings.
"""

import textwrap

from repro.lint import LintEngine
from repro.lint.rules.contracts import InstrumentContractRule, WireContractRule

from tests.lint.conftest import rule_findings


def contract_rules():
    return [WireContractRule(), InstrumentContractRule()]


# ------------------------------------------------------------- fixtures

ROUTER = """
    class FleetRouter:
        async def _dispatch(self, doc):
            routing = OPS[doc["op"]].routing
            if routing == "local":
                return getattr(self, "_local_" + doc["op"])()
            return await getattr(self, "_route_" + routing)(doc)

        def _local_ping(self):
            return {"ok": True, "op": "ping"}

        async def _route_by_source(self, doc):
            return {"ok": True}
"""


def wire_fixture(**overrides):
    files = {
        "repro/service/protocol.py": """
            OPS = {
                "ping": OpSpec(),
                "query": OpSpec(fields=frozenset({"source"}),
                                routing="by-source"),
            }


            def validate_request(doc):
                if doc.get("op") not in OPS:
                    raise ValueError("unknown op")
        """,
        "repro/service/server.py": """
            class Server:
                async def _dispatch(self, doc):
                    return await getattr(self, "_handle_" + doc["op"])(doc)

                async def _handle_ping(self, doc):
                    return {"ok": True, "op": "ping"}

                async def _handle_query(self, doc):
                    return {"ok": True, "op": "query"}
        """,
        "repro/service/client.py": """
            class ServiceClient:
                def ping(self):
                    return self.request({"op": "ping"})

                def query(self, algorithm, source):
                    return self.request({"op": "query", "source": source})

                def request(self, doc):
                    return doc
        """,
        "repro/fleet/router.py": ROUTER,
        "repro/cli.py": """
            def cmd_ping(client):
                return client.ping()


            def cmd_query(client):
                return client.query("SSSP", 0)
        """,
    }
    files.update(overrides)
    return files


def instrument_fixture(**overrides):
    files = {
        "repro/obs/instruments.py": """
            INSTRUMENTS = {
                "repro_requests_total": InstrumentSpec(
                    "counter", "requests by op", ("op",),
                ),
                "repro_queue_depth": InstrumentSpec("gauge", "queue depth"),
            }
        """,
        "repro/service/server.py": """
            from repro import obs


            def handle(registry, op):
                obs.counter_inc("repro_requests_total", op=op)

                def gauge(name, value, **labels):
                    obs.instruments.family(registry, name).labels(
                        **labels).set(value)

                gauge("repro_queue_depth", 3)
        """,
    }
    files.update(overrides)
    return files


# ---------------------------------------------------------- wire: clean

def test_coherent_wire_project_is_clean(lint_project):
    result = lint_project(wire_fixture(), rules=contract_rules())
    assert rule_findings(result, "wire-contract") == []


def test_wire_rule_silent_without_protocol_module(lint_project):
    files = wire_fixture()
    del files["repro/service/protocol.py"]
    result = lint_project(files, rules=contract_rules())
    assert rule_findings(result, "wire-contract") == []


def test_wire_rule_skips_absent_layers(lint_project):
    files = wire_fixture()
    del files["repro/cli.py"]
    result = lint_project(files, rules=contract_rules())
    assert rule_findings(result, "wire-contract") == []


# ------------------------------------------------- wire: seeded drift

def test_missing_server_handler_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/service/server.py": """
            class Server:
                async def _dispatch(self, doc):
                    return await getattr(self, "_handle_" + doc["op"])(doc)

                async def _handle_query(self, doc):
                    return {"ok": True, "op": "query"}
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert len(findings) == 1
    assert findings[0].path == "repro/service/server.py"
    assert "op 'ping'" in findings[0].message
    assert "'_handle_ping'" in findings[0].message
    assert "server" in findings[0].message


def test_missing_client_method_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/service/client.py": """
            class ServiceClient:
                def query(self, algorithm, source):
                    return self.request({"op": "query", "source": source})

                def request(self, doc):
                    return doc
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert [f.path for f in findings] == ["repro/service/client.py"]
    assert "op 'ping'" in findings[0].message


def test_missing_router_routing_method_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/fleet/router.py": ROUTER.replace("_route_by_source",
                                                "_forward"),
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert [f.path for f in findings] == ["repro/fleet/router.py"]
    assert "op 'query'" in findings[0].message
    assert "'_route_by_source'" in findings[0].message


def test_missing_router_local_answer_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/fleet/router.py": ROUTER.replace("_local_ping", "_pong"),
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert [f.path for f in findings] == ["repro/fleet/router.py"]
    assert "'_local_ping'" in findings[0].message


def test_missing_cli_surface_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/cli.py": """
            def cmd_query(client):
                return client.query("SSSP", 0)
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert [f.path for f in findings] == ["repro/cli.py"]
    assert "op 'ping'" in findings[0].message


def test_phantom_handler_is_caught_at_the_dispatching_layer(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/fleet/router.py": ROUTER + """
        def _local_snapshot(self):
            return {"ok": True}
""",
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert len(findings) == 1
    assert findings[0].path == "repro/fleet/router.py"
    assert "phantom" in findings[0].message
    assert "'_local_snapshot'" in findings[0].message


def test_phantom_op_in_request_payload_is_caught(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/service/client.py": """
            class ServiceClient:
                def ping(self):
                    return self.request({"op": "ping"})

                def query(self, algorithm, source):
                    return self.request({"op": "query", "source": source})

                def snapshot(self):
                    return self.request({"op": "snapshot"})

                def request(self, doc):
                    return doc
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert len(findings) == 1
    assert "'snapshot'" in findings[0].message


def test_inline_allow_suppresses_a_contract_finding(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/service/client.py": """
            class ServiceClient:
                def ping(self):
                    return self.request({"op": "ping"})

                def query(self, algorithm, source):
                    return self.request({"op": "query", "source": source})

                def snapshot(self):
                    # lint: allow(wire-contract): staged ahead of the bump
                    return self.request({"op": "snapshot"})

                def request(self, doc):
                    return doc
        """,
    }), rules=contract_rules())
    assert rule_findings(result, "wire-contract") == []
    assert [f.rule for f in result.suppressed] == ["wire-contract"]


def test_unparseable_ops_table_is_itself_a_finding(lint_project):
    result = lint_project(wire_fixture(**{
        "repro/service/protocol.py": """
            OPS = dict.fromkeys(["ping", "query"], OpSpec())
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "wire-contract")
    assert len(findings) == 1
    assert "statically enumerable" in findings[0].message


# ---------------------------------------------------- instruments: clean

def test_coherent_instrument_project_is_clean(lint_project):
    result = lint_project(instrument_fixture(), rules=contract_rules())
    assert rule_findings(result, "instrument-contract") == []


def test_instrument_rule_silent_without_registry_module(lint_project):
    result = lint_project({
        "repro/core/ops.py": "def identity(x):\n    return x\n",
    }, rules=contract_rules())
    assert rule_findings(result, "instrument-contract") == []


# -------------------------------------------- instruments: seeded drift

def test_dead_instrument_is_flagged_at_its_declaration(lint_project):
    result = lint_project(instrument_fixture(**{
        "repro/obs/instruments.py": """
            INSTRUMENTS = {
                "repro_requests_total": InstrumentSpec(
                    "counter", "requests by op", ("op",),
                ),
                "repro_queue_depth": InstrumentSpec("gauge", "queue depth"),
                "repro_orphan_total": InstrumentSpec("counter", "unused"),
            }
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert findings[0].path == "repro/obs/instruments.py"
    assert "dead instrument" in findings[0].message
    assert "'repro_orphan_total'" in findings[0].message


def test_label_mismatch_is_caught_at_the_emission_site(lint_project):
    result = lint_project(instrument_fixture(**{
        "repro/service/server.py": """
            from repro import obs


            def handle(op):
                obs.counter_inc("repro_requests_total", operation=op)
                obs.gauge_set("repro_queue_depth", 3)
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert findings[0].path == "repro/service/server.py"
    assert "operation" in findings[0].message and "op" in findings[0].message


def test_undeclared_emission_is_caught(lint_project):
    result = lint_project(instrument_fixture(**{
        "repro/service/server.py": """
            from repro import obs


            def handle(registry, op):
                obs.counter_inc("repro_requests_total", op=op)

                def gauge(name, value, **labels):
                    obs.instruments.family(registry, name).labels(
                        **labels).set(value)

                gauge("repro_queue_depth", 3)
                obs.counter_inc("repro_ghost_total")
        """,
    }), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert "undeclared instrument" in findings[0].message
    assert "'repro_ghost_total'" in findings[0].message


def test_opaque_label_forwarding_is_not_checked(lint_project):
    # `**labels` at the call site can't be verified statically; the
    # rule must stay silent rather than guess.
    result = lint_project(instrument_fixture(**{
        "repro/service/state.py": """
            from repro import obs


            def emit(labels):
                obs.counter_inc("repro_requests_total", **labels)
        """,
    }), rules=contract_rules())
    assert rule_findings(result, "instrument-contract") == []


# ------------------------------------------------- instruments: docs

def docs_table(rows):
    lines = ["| metric | kind | meaning |", "| --- | --- | --- |"]
    lines += [f"| `{row}` | x | y |" for row in rows]
    return "# Observability\n\n" + "\n".join(lines) + "\n"


def test_docs_table_in_sync_is_clean(lint_project, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        docs_table(["repro_requests_total{op}", "repro_queue_depth"])
    )
    result = lint_project(instrument_fixture(), rules=contract_rules())
    assert rule_findings(result, "instrument-contract") == []


def test_undocumented_instrument_is_caught(lint_project, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        docs_table(["repro_requests_total{op}"])
    )
    result = lint_project(instrument_fixture(), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert "'repro_queue_depth'" in findings[0].message
    assert "missing from" in findings[0].message


def test_documented_ghost_metric_is_caught(lint_project, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        docs_table(["repro_requests_total{op}", "repro_queue_depth",
                    "repro_legacy_total"])
    )
    result = lint_project(instrument_fixture(), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert findings[0].path == "docs/observability.md"
    assert "'repro_legacy_total'" in findings[0].message


def test_docs_label_skew_is_caught(lint_project, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        docs_table(["repro_requests_total{operation}", "repro_queue_depth"])
    )
    result = lint_project(instrument_fixture(), rules=contract_rules())
    findings = rule_findings(result, "instrument-contract")
    assert len(findings) == 1
    assert findings[0].path == "docs/observability.md"
    assert "operation" in findings[0].message


# ------------------------------------------------------ engine phasing

def test_restrict_scopes_module_rules_but_not_project_rules(tmp_path):
    # --changed hands the engine a restricted module set; per-module
    # rules skip everything else, but contract rules must still see the
    # whole tree — drift in an unchanged file is still drift.
    files = wire_fixture(**{
        "repro/core/clock.py": """
            import time


            def now():
                return time.time()
        """,
        "repro/cli.py": """
            def cmd_query(client):
                return client.query("SSSP", 0)
        """,
    })
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    engine = LintEngine(tmp_path)
    unrestricted = engine.run()
    assert {f.rule for f in unrestricted.findings} == {
        "determinism", "wire-contract"
    }
    restricted = engine.run(restrict={"repro/service/server.py"})
    assert {f.rule for f in restricted.findings} == {"wire-contract"}
