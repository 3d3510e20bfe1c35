"""Project-invariant static analysis for the CommonGraph codebase.

``repro.lint`` encodes the invariants the runtime never checks and
only static analysis can — lock discipline around shared caches,
async-safety of the service front end, immutability of frozen graph
objects, the error taxonomy, determinism of the algorithm paths,
instrument-registry agreement at every emission site, and a global
lock-acquisition order — as AST-level rules run over the package on
every CI build (``python -m repro lint``).

The analysis is two-phase: phase 1 parses every module and builds the
whole-program index (:mod:`repro.lint.project` — symbol table and call
graph with lock summaries); phase 2 runs the per-module rules and then
the project-scoped rules over that index.

Layout::

    engine.py       module loading, annotation index, rule driving
    project.py      phase-1 whole-program index for project rules
    rules/          one module per rule + the pluggable registry
    findings.py     Finding records and their SARIF fingerprints
    annotations.py  the guarded-by / holds-lock / allow pragma grammar
    report.py       text and JSON rendering
    sarif.py        SARIF 2.1.0 rendering for PR annotation

See ``docs/static-analysis.md`` for the rule catalog and the
annotation grammar.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.annotations import (
    AllowPragma,
    ModuleAnnotations,
    extract_annotations,
)
from repro.lint.engine import LintEngine, LintResult, ModuleUnit, ProjectIndex
from repro.lint.findings import Finding
from repro.lint.project import ProgramIndex, build_program_index
from repro.lint.report import render_json, render_text
from repro.lint.rules import (
    ProjectRule,
    Rule,
    default_rules,
    register_rule,
    rule_names,
)
from repro.lint.sarif import render_sarif

__all__ = [
    "AllowPragma",
    "Finding",
    "ModuleAnnotations",
    "extract_annotations",
    "LintEngine",
    "LintResult",
    "ModuleUnit",
    "ProgramIndex",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "build_program_index",
    "default_rules",
    "package_root",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_names",
]


def package_root() -> Path:
    """The source root the package was imported from (parent of ``repro``)."""
    return Path(__file__).resolve().parents[2]
