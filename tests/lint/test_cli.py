"""The ``repro lint`` command end to end, its reports, and the self-lint
gate.

The self-lint test is the repository's own acceptance criterion: the
analyzer must exit 0 on the codebase it ships with, every suppression
an inline allow with its justification next to the code.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

from repro import lint
from repro.cli import main
from repro.lint import Finding, LintResult, render_json, render_text

CLEAN = "def identity(x):\n    return x\n"

VIOLATION = textwrap.dedent("""\
    import time


    def wall():
        return time.time()
""")


def project(tmp_path, files):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def lint_cmd(root, *extra):
    return main(["lint", "--root", str(root), *extra])


# ----------------------------------------------------------- exit codes

def test_clean_project_exits_zero(tmp_path, capsys):
    root = project(tmp_path, {"repro/core/ops.py": CLEAN})
    assert lint_cmd(root) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_seeded_violation_fails_the_run(tmp_path, capsys):
    # The CI gate: introducing a violation must flip the exit code.
    root = project(tmp_path, {"repro/core/ops.py": VIOLATION})
    assert lint_cmd(root) == 1
    out = capsys.readouterr().out
    assert "determinism" in out and "time.time" in out


def test_config_error_exits_two(tmp_path, capsys):
    root = project(tmp_path, {
        "repro/core/ops.py": "x = 1  # lint: allow(determinism)\n",
    })
    assert lint_cmd(root) == 2
    assert "justification" in capsys.readouterr().err


def test_json_output_parses(tmp_path, capsys):
    root = project(tmp_path, {"repro/core/ops.py": VIOLATION})
    assert lint_cmd(root, "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts"] == {"determinism": 1}


def test_list_rules(tmp_path, capsys):
    root = project(tmp_path, {"repro/core/ops.py": CLEAN})
    assert lint_cmd(root, "--list-rules") == 0
    out = capsys.readouterr().out
    listed = [line.partition(":")[0] for line in out.splitlines()]
    assert listed == lint.rule_names() == [
        "async-blocking", "determinism", "error-taxonomy", "frozen-graph",
        "instrument-contract", "lock-discipline", "lock-order",
    ]


# -------------------------------------------------------------- self-lint

def repo_root():
    return Path(__file__).resolve().parents[2]


def test_self_lint_repository_is_clean(capsys):
    # `python -m repro lint` on the shipped tree: exit 0.
    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_self_lint_catches_a_seeded_regression(tmp_path):
    # Copy the real package, seed one violation, and make sure the
    # analyzer fails — the property the CI lint job relies on.
    import shutil

    src = repo_root() / "src" / "repro"
    root = tmp_path
    shutil.copytree(src, root / "repro")
    (root / "pyproject.toml").write_text("[project]\nname = 'copy'\n")
    target = root / "repro" / "core" / "common.py"
    target.write_text(
        target.read_text() + "\n\ndef _stamp():\n    import time\n    return time.time()\n"
    )
    assert lint_cmd(root) == 1


# ---------------------------------------------------------------- sarif

def test_sarif_output_parses_and_carries_fingerprints(tmp_path, capsys):
    root = project(tmp_path, {"repro/core/ops.py": VIOLATION})
    assert lint_cmd(root, "--format", "sarif") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "determinism" in rule_ids and "lock-order" in rule_ids
    (res,) = [r for r in run["results"] if "suppressions" not in r]
    assert res["ruleId"] == "determinism"
    assert res["partialFingerprints"]["reproLint/v2"]
    region = res["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1


def test_sarif_marks_suppressed_findings(tmp_path, capsys):
    root = project(tmp_path, {
        "repro/core/ops.py": textwrap.dedent("""\
            import time


            def wall():
                # lint: allow(determinism): fixture timestamp only
                return time.time()
        """),
    })
    assert lint_cmd(root, "--format", "sarif") == 0
    doc = json.loads(capsys.readouterr().out)
    (res,) = doc["runs"][0]["results"]
    (suppression,) = res["suppressions"]
    assert suppression["kind"] == "inSource"


# ---------------------------------------------------------- fingerprints

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
    # v2 identity is path-independent: moving the module keeps the
    # SARIF partialFingerprints, so the host does not call it new.
    a = make_finding()
    b = dataclasses.replace(a, path="repro/fleet/algo.py", line=3)
    assert a.fingerprint == b.fingerprint


# -------------------------------------------------------------- reports

def test_render_json_schema_round_trip():
    result = LintResult(
        findings=[make_finding()],
        suppressed=[make_finding(suppressed_by="inline-allow")],
        modules_scanned=3,
        rules_run=["determinism"],
    )
    payload = json.loads(render_json(result))
    assert payload["version"] == 2
    assert payload["ok"] is False
    assert payload["modules_scanned"] == 3
    assert payload["counts"] == {"determinism": 1}
    (finding,) = payload["findings"]
    assert finding["fingerprint"] == make_finding().fingerprint
    assert payload["suppressed"][0]["suppressed_by"] == "inline-allow"
    assert "stale_baseline" not in payload


def test_render_text_summary():
    result = LintResult(
        findings=[make_finding()],
        suppressed=[make_finding(suppressed_by="inline-allow")],
        modules_scanned=2,
        rules_run=["determinism"],
    )
    text = render_text(result)
    assert "1 finding(s) (determinism: 1) in 2 module(s)" in text
    assert "1 suppressed by inline allow" in text
    assert "repro/core/algo.py:7:4: determinism:" in text
