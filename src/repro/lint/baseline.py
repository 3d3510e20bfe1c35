"""Baseline handling: grandfathered findings with mandatory justifications.

The baseline file (``lint-baseline.json`` at the repository root)
records findings that are *known and provably benign*.  Every entry
must carry a non-empty ``justification`` — a baseline is a ledger of
accepted risk, not a mute button — and entries are matched by the
location-independent :attr:`~repro.lint.findings.Finding.fingerprint`
so unrelated edits never invalidate them.

Workflow: ``python -m repro lint --update-baseline`` rewrites the file
from the current findings, preserving justifications of entries that
still match and stamping new entries with a ``FIXME`` placeholder that
the author must replace (the engine refuses to load placeholders).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.errors import LintError
from repro.lint.findings import Finding

__all__ = [
    "BaselineEntry",
    "PLACEHOLDER_JUSTIFICATION",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]

PLACEHOLDER_JUSTIFICATION = "FIXME: justify why this finding is benign"

#: v2 fingerprints hash ``(rule, context, message)`` — path-independent,
#: so renames don't invalidate entries.
_VERSION = 2


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding plus the reason it is acceptable."""

    rule: str
    path: str
    context: str
    message: str
    fingerprint: str
    justification: str

    def as_dict(self) -> Dict[str, str]:
        return dataclasses.asdict(self)


def load_baseline(path: Path) -> List[BaselineEntry]:
    """Parse and validate a baseline file.

    Raises :class:`LintError` for schema problems, duplicate
    fingerprints, and entries whose justification is missing, empty or
    still the ``FIXME`` placeholder.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LintError(f"baseline {path} is not valid JSON: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != _VERSION:
        raise LintError(
            f"baseline {path} must be a JSON object with 'version': {_VERSION}"
        )
    entries: List[BaselineEntry] = []
    seen: Dict[str, int] = {}
    for position, doc in enumerate(payload.get("entries", [])):
        if not isinstance(doc, dict):
            raise LintError(f"baseline {path}: entry {position} is not an object")
        missing = {"rule", "path", "message", "fingerprint"} - set(doc)
        if missing:
            raise LintError(
                f"baseline {path}: entry {position} lacks {sorted(missing)}"
            )
        justification = str(doc.get("justification", "")).strip()
        if not justification or justification == PLACEHOLDER_JUSTIFICATION:
            raise LintError(
                f"baseline {path}: entry {position} "
                f"({doc['rule']} in {doc['path']}) has no justification; "
                "every grandfathered finding must explain why it is benign"
            )
        fingerprint = str(doc["fingerprint"])
        if fingerprint in seen:
            raise LintError(
                f"baseline {path}: duplicate fingerprint {fingerprint} "
                f"(entries {seen[fingerprint]} and {position})"
            )
        seen[fingerprint] = position
        entries.append(BaselineEntry(
            rule=str(doc["rule"]),
            path=str(doc["path"]),
            context=str(doc.get("context", "")),
            message=str(doc["message"]),
            fingerprint=fingerprint,
            justification=justification,
        ))
    return entries


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry]
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into ``(active, baselined, stale_entries)``.

    ``stale_entries`` are baseline entries that matched nothing — the
    underlying code was fixed, so the entry should be deleted (the
    report surfaces them; ``--update-baseline`` drops them).
    """
    by_fingerprint = {entry.fingerprint: entry for entry in entries}
    active: List[Finding] = []
    baselined: List[Finding] = []
    matched = set()
    for finding in findings:
        entry = by_fingerprint.get(finding.fingerprint)
        if entry is not None:
            matched.add(entry.fingerprint)
            baselined.append(
                dataclasses.replace(finding, suppressed_by="baseline")
            )
        else:
            active.append(finding)
    stale = [
        entry for entry in entries if entry.fingerprint not in matched
    ]
    return active, baselined, stale


def write_baseline(
    path: Path,
    findings: Sequence[Finding],
    previous: Sequence[BaselineEntry] = (),
) -> List[BaselineEntry]:
    """Write a baseline covering ``findings``.

    Justifications of still-matching previous entries are preserved;
    new entries get the ``FIXME`` placeholder, which the engine refuses
    to load — forcing the author to justify before the baseline is
    usable.
    """
    keep = {entry.fingerprint: entry.justification for entry in previous}
    entries = []
    written = set()
    for finding in findings:
        # Path-independent fingerprints can collide when the same
        # defect appears in several files; one entry covers them all.
        if finding.fingerprint in written:
            continue
        written.add(finding.fingerprint)
        entries.append(BaselineEntry(
            rule=finding.rule,
            path=finding.path,
            context=finding.context,
            message=finding.message,
            fingerprint=finding.fingerprint,
            justification=keep.get(
                finding.fingerprint, PLACEHOLDER_JUSTIFICATION
            ),
        ))
    payload = {
        "version": _VERSION,
        "entries": [entry.as_dict() for entry in entries],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return entries
