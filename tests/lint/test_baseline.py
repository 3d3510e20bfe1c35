"""Baseline round-trips, justification enforcement, fingerprints, JSON."""

import dataclasses
import json

import pytest

from repro.errors import LintError
from repro.lint import (
    Finding,
    LintResult,
    PLACEHOLDER_JUSTIFICATION,
    apply_baseline,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)


def make_finding(**overrides):
    base = dict(
        rule="determinism",
        path="repro/core/algo.py",
        line=7,
        col=4,
        message="wall-clock read",
        context="wall",
    )
    base.update(overrides)
    return Finding(**base)


# ---------------------------------------------------------- fingerprints

def test_fingerprint_survives_line_shifts():
    a = make_finding()
    b = dataclasses.replace(a, line=99, col=0)
    assert a.fingerprint == b.fingerprint


def test_fingerprint_distinguishes_rule_context_message():
    a = make_finding()
    for field, value in [
        ("rule", "frozen-graph"),
        ("context", "stall"),
        ("message", "different"),
    ]:
        assert make_finding(**{field: value}).fingerprint != a.fingerprint


def test_fingerprint_survives_file_renames():
    # v2 identity is path-independent: moving the module does not
    # invalidate a justified baseline entry.
    a = make_finding()
    b = dataclasses.replace(a, path="repro/fleet/algo.py", line=3)
    assert a.fingerprint == b.fingerprint


# ----------------------------------------------------------- round-trip

def test_write_then_load_round_trip(tmp_path):
    path = tmp_path / "lint-baseline.json"
    finding = make_finding()
    write_baseline(path, [finding])

    # Fresh entries carry the FIXME placeholder, which refuses to load:
    # a baseline must be justified before it is usable.
    with pytest.raises(LintError, match="no justification"):
        load_baseline(path)

    payload = json.loads(path.read_text())
    payload["entries"][0]["justification"] = "benign: covered by tests"
    path.write_text(json.dumps(payload))

    entries = load_baseline(path)
    assert len(entries) == 1
    assert entries[0].fingerprint == finding.fingerprint

    # A second write preserves the human-authored justification.
    write_baseline(path, [finding], previous=entries)
    assert load_baseline(path)[0].justification == "benign: covered by tests"


def test_apply_baseline_splits_active_baselined_stale(tmp_path):
    path = tmp_path / "lint-baseline.json"
    old = make_finding(message="grandfathered")
    gone = make_finding(message="since fixed")
    write_baseline(path, [old, gone])
    payload = json.loads(path.read_text())
    for entry in payload["entries"]:
        entry["justification"] = "benign"
    path.write_text(json.dumps(payload))
    entries = load_baseline(path)

    fresh = make_finding(message="brand new")
    active, baselined, stale = apply_baseline([old, fresh], entries)
    assert [f.message for f in active] == ["brand new"]
    assert [f.message for f in baselined] == ["grandfathered"]
    assert baselined[0].suppressed_by == "baseline"
    assert [e.message for e in stale] == ["since fixed"]


# ----------------------------------------------------------- validation

def write_payload(tmp_path, payload):
    path = tmp_path / "lint-baseline.json"
    path.write_text(json.dumps(payload))
    return path


def entry_dict(**overrides):
    base = make_finding().as_dict()
    doc = {
        "rule": base["rule"],
        "path": base["path"],
        "context": base["context"],
        "message": base["message"],
        "fingerprint": base["fingerprint"],
        "justification": "benign",
    }
    doc.update(overrides)
    return doc


def test_load_rejects_bad_json_and_bad_version(tmp_path):
    path = tmp_path / "lint-baseline.json"
    path.write_text("{not json")
    with pytest.raises(LintError, match="not valid JSON"):
        load_baseline(path)
    with pytest.raises(LintError, match="version"):
        load_baseline(write_payload(tmp_path, {"version": 3, "entries": []}))


def test_load_rejects_missing_keys(tmp_path):
    doc = entry_dict()
    del doc["fingerprint"]
    path = write_payload(tmp_path, {"version": 2, "entries": [doc]})
    with pytest.raises(LintError, match="fingerprint"):
        load_baseline(path)


def test_load_rejects_placeholder_and_empty_justification(tmp_path):
    for justification in ("", "   ", PLACEHOLDER_JUSTIFICATION):
        path = write_payload(tmp_path, {
            "version": 2,
            "entries": [entry_dict(justification=justification)],
        })
        with pytest.raises(LintError, match="no justification"):
            load_baseline(path)


def test_load_rejects_duplicate_fingerprints(tmp_path):
    path = write_payload(tmp_path, {
        "version": 2,
        "entries": [entry_dict(), entry_dict()],
    })
    with pytest.raises(LintError, match="duplicate fingerprint"):
        load_baseline(path)


# ------------------------------------------------------------- renames

def test_v1_baseline_is_refused_with_a_clear_error(tmp_path):
    path = write_payload(tmp_path, {
        "version": 1,
        "entries": [entry_dict(fingerprint="0123456789abcdef")],
    })
    with pytest.raises(LintError, match="'version': 2"):
        load_baseline(path)


def test_rename_keeps_baseline_entry_matching(tmp_path):
    # Round-trip regression for the rename guarantee: write under one
    # path, rename the module, the entry still matches.
    path = tmp_path / "lint-baseline.json"
    finding = make_finding()
    write_baseline(path, [finding])
    payload = json.loads(path.read_text())
    payload["entries"][0]["justification"] = "benign: covered by tests"
    path.write_text(json.dumps(payload))
    entries = load_baseline(path)

    moved = dataclasses.replace(finding, path="repro/fleet/algo.py", line=2)
    active, baselined, stale = apply_baseline([moved], entries)
    assert not active and not stale
    assert baselined[0].path == "repro/fleet/algo.py"


def test_write_baseline_dedupes_colliding_fingerprints(tmp_path):
    # The same defect in two files produces one entry: v2 fingerprints
    # are path-independent, and one justification covers both sites.
    path = tmp_path / "lint-baseline.json"
    a = make_finding()
    b = dataclasses.replace(a, path="repro/fleet/algo.py")
    entries = write_baseline(path, [a, b])
    assert len(entries) == 1
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert len(payload["entries"]) == 1


# -------------------------------------------------------------- reports

def test_render_json_schema_round_trip():
    result = LintResult(
        findings=[make_finding()],
        suppressed=[make_finding(suppressed_by="inline-allow")],
        modules_scanned=3,
        rules_run=["determinism"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert payload["modules_scanned"] == 3
    assert payload["counts"] == {"determinism": 1}
    (finding,) = payload["findings"]
    assert finding["fingerprint"] == make_finding().fingerprint
    assert payload["suppressed"][0]["suppressed_by"] == "inline-allow"
    assert payload["stale_baseline"] == []


def test_render_text_summary(tmp_path):
    result = LintResult(
        findings=[make_finding()], modules_scanned=2,
        rules_run=["determinism"],
    )
    path = tmp_path / "lint-baseline.json"
    write_baseline(path, [make_finding(message="stale one")])
    payload = json.loads(path.read_text())
    payload["entries"][0]["justification"] = "benign"
    path.write_text(json.dumps(payload))
    stale = load_baseline(path)

    text = render_text(result, baselined=[], stale_entries=stale)
    assert "1 finding(s) (determinism: 1) in 2 module(s)" in text
    assert "stale baseline entry" in text
    assert "repro/core/algo.py:7:4: determinism:" in text
