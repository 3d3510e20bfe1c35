"""Rendering: human text and machine JSON for one lint run."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from repro.lint.engine import LintResult

__all__ = ["render_json", "render_text"]


def render_text(result: LintResult) -> str:
    """The terminal report: findings, then a one-line summary."""
    lines: List[str] = [finding.render() for finding in result.findings]
    counts = Counter(finding.rule for finding in result.findings)
    by_rule = ", ".join(
        f"{rule}: {count}" for rule, count in sorted(counts.items())
    )
    lines.append(
        f"{len(result.findings)} finding(s)"
        + (f" ({by_rule})" if by_rule else "")
        + f" in {result.modules_scanned} module(s); "
        f"{len(result.suppressed)} suppressed by inline allow"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, see docs/static-analysis.md)."""
    counts: Dict[str, int] = dict(
        Counter(finding.rule for finding in result.findings)
    )
    payload = {
        "version": 2,
        "ok": result.ok,
        "modules_scanned": result.modules_scanned,
        "rules_run": result.rules_run,
        "counts": counts,
        "findings": [finding.as_dict() for finding in result.findings],
        "suppressed": [finding.as_dict() for finding in result.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
