"""SARIF 2.1.0 rendering for lint results.

SARIF (Static Analysis Results Interchange Format) is what code
hosts ingest to annotate findings onto PR diffs — CI runs
``repro lint --format sarif`` and uploads the file, and every finding
shows up inline at its source line.

Notes on the mapping:

* ``partialFingerprints`` carries the path-independent v2
  :attr:`~repro.lint.findings.Finding.fingerprint`, so the host's
  "new vs. pre-existing" dedup survives line shifts and file moves.
* Findings suppressed by an inline allow are included with an
  ``inSource`` suppression rather than dropped — the host then shows
  them as reviewed, matching the text report's "suppressed" count.
* ``uri_prefix`` re-anchors module-relative paths (``repro/...``) to
  repository-relative ones (``src/repro/...``) so annotations land.
  Paths already anchored at the repository root — the ``docs/``
  cross-check findings — are passed through untouched.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.engine import LintResult
from repro.lint.findings import Finding

__all__ = ["render_sarif"]

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"
_TOOL_URI = "https://github.com/commongraph/repro"


def _artifact_uri(path: str, uri_prefix: str) -> str:
    if not uri_prefix or path.startswith("docs/"):
        return path
    return f"{uri_prefix.rstrip('/')}/{path}"


def _result(finding: Finding, rule_index: Dict[str, int],
            uri_prefix: str) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": _artifact_uri(finding.path, uri_prefix),
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": max(finding.line, 1),
                    "startColumn": max(finding.col + 1, 1),
                },
            },
        }],
        "partialFingerprints": {
            "reproLint/v2": finding.fingerprint,
        },
    }
    if finding.rule in rule_index:
        doc["ruleIndex"] = rule_index[finding.rule]
    if finding.context:
        doc["locations"][0]["logicalLocations"] = [{
            "fullyQualifiedName": finding.context,
        }]
    if finding.suppressed_by:
        doc["suppressions"] = [{
            "kind": "inSource",
            "justification": f"suppressed by {finding.suppressed_by}",
        }]
    return doc


def render_sarif(
    result: LintResult,
    *,
    uri_prefix: str = "",
    rules: Sequence[Any] = (),
) -> str:
    """One SARIF run covering active and suppressed findings.

    ``rules`` is the engine's rule list; each contributes tool-driver
    metadata so hosts can show titles next to annotations.
    """
    driver_rules: List[Dict[str, Any]] = []
    rule_index: Dict[str, int] = {}
    for rule in rules:
        rule_index[rule.name] = len(driver_rules)
        driver_rules.append({
            "id": rule.name,
            "shortDescription": {"text": rule.title or rule.name},
            "defaultConfiguration": {"level": "error"},
        })
    results = [
        _result(finding, rule_index, uri_prefix)
        for finding in (*result.findings, *result.suppressed)
    ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": _TOOL_URI,
                    "rules": driver_rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
