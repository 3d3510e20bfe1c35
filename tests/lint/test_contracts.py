"""The instrument-contract rule, driven by synthetic fixture projects.

Each test seeds one specific drift — dead instrument, label mismatch,
undeclared emission, docs skew — and asserts it is caught at the
intended site.  The clean fixtures double as negative controls: a
coherent project must produce zero contract findings.

(The wire-op table is not a lint rule: ``TestOpTable`` in
``tests/service/test_protocol.py`` imports ``protocol.OPS`` and the
real server, router, client and CLI and checks them directly.)
"""

from repro.lint.rules.contracts import InstrumentContractRule

from tests.lint.conftest import rule_findings


def contract_rules():
    return [InstrumentContractRule()]


# ------------------------------------------------------------- fixtures

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


def test_inline_allow_suppresses_a_contract_finding(lint_project):
    result = lint_project(instrument_fixture(**{
        "repro/service/state.py": """
            from repro import obs


            def emit():
                # lint: allow(instrument-contract): staged ahead of the bump
                obs.counter_inc("repro_ghost_total")
        """,
    }), rules=contract_rules())
    assert rule_findings(result, "instrument-contract") == []
    assert [f.rule for f in result.suppressed] == ["instrument-contract"]


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
