"""Project-wide contract rule: instrument agreement.

``instrument-contract``
    ``repro.obs.instruments.INSTRUMENTS`` is the single source of
    truth for metrics.  Every emission site must name a declared
    instrument with exactly the declared label keys; every declared
    instrument must have at least one emission site; and the table in
    ``docs/observability.md`` must list exactly the declared names
    with matching label sets.

An emission *site* is only visible in the source — no import of the
registry can find the call that names an undeclared metric — which is
why this is a lint rule.

The rule skips silently when the registry module is not part of the
scanned tree, so fixture projects and partial checkouts lint clean.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectRule, dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ModuleUnit, ProjectIndex

__all__ = ["InstrumentContractRule"]


INSTRUMENTS_MODULE = "repro/obs/instruments.py"
OBSERVABILITY_DOC = "docs/observability.md"

#: Facade emitters: ``<name>(<literal>, ... , label=value, ...)``.
#: ``gauge`` is the local scrape-collector wrapper idiom; ``_observe_in``
#: the internal histogram bridge in the obs facade.
EMITTER_NAMES = {"counter_inc", "gauge_set", "observe", "timer", "gauge",
                 "_observe_in"}
#: Keyword arguments of the facade that are values, not labels.
VALUE_KWARGS = {"amount", "value"}

#: ``repro_<metric>`` or ``repro_<metric>{label,label}`` in backticks —
#: the row-key format of the docs/observability.md instrument table.
_DOC_METRIC_RE = re.compile(
    r"`(repro_[a-z0-9_]+)(?:\{([a-z0-9_,\s]*)\})?`"
)


class _Emission:
    """One statically-resolvable metric emission site."""

    __slots__ = ("name", "line", "module", "labels", "opaque_labels")

    def __init__(self, name: str, line: int, module: str,
                 labels: Set[str], opaque_labels: bool) -> None:
        self.name = name
        self.line = line
        self.module = module
        self.labels = labels
        self.opaque_labels = opaque_labels


def _collect_emissions(module: "ModuleUnit") -> List[_Emission]:
    emissions: List[_Emission] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        leaf = callee.rpartition(".")[2]
        name_arg: Optional[ast.expr] = None
        if leaf in EMITTER_NAMES:
            position = 1 if leaf == "_observe_in" else 0
            if len(node.args) > position:
                name_arg = node.args[position]
        elif leaf == "family" and len(node.args) >= 2:
            name_arg = node.args[1]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and name_arg.value.startswith("repro_")):
            continue
        if leaf == "family":
            # Only a directly-chained ``.labels(...)`` pins the label
            # set; a bare family() call (prime, collectors) just
            # references the instrument.
            emissions.append(_Emission(name_arg.value, node.lineno,
                                       module.relpath, set(), True))
            continue
        labels = {kw.arg for kw in node.keywords if kw.arg is not None}
        opaque = any(kw.arg is None for kw in node.keywords)
        emissions.append(_Emission(
            name_arg.value, node.lineno, module.relpath,
            labels - VALUE_KWARGS, opaque,
        ))
    # ``family(reg, "name").labels(k=...)``: the chained call fixes the
    # label set after all.
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "labels"
                and isinstance(node.func.value, ast.Call)):
            continue
        inner = node.func.value
        inner_callee = dotted_name(inner.func)
        if inner_callee is None or \
                inner_callee.rpartition(".")[2] != "family":
            continue
        if not (len(inner.args) >= 2
                and isinstance(inner.args[1], ast.Constant)
                and isinstance(inner.args[1].value, str)
                and inner.args[1].value.startswith("repro_")):
            continue
        labels = {kw.arg for kw in node.keywords if kw.arg is not None}
        opaque = any(kw.arg is None for kw in node.keywords)
        emissions.append(_Emission(inner.args[1].value, node.lineno,
                                   module.relpath, labels, opaque))
    return emissions


class InstrumentContractRule(ProjectRule):
    """Emissions, the INSTRUMENTS registry and the docs table must agree."""

    name = "instrument-contract"
    title = ("every metric emission names a declared instrument with the "
             "declared labels; no dead instruments; docs table in sync")

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        registry_module = project.module_units.get(INSTRUMENTS_MODULE)
        if registry_module is None:
            return
        declared = self._declared_instruments(registry_module)
        if declared is None:
            yield self.project_finding(
                project, INSTRUMENTS_MODULE, 1,
                "could not parse the INSTRUMENTS dict literal; the "
                "instrument table must stay statically enumerable",
            )
            return

        emitted: Dict[str, int] = {}
        for relpath in sorted(project.module_units):
            module = project.module_units[relpath]
            for emission in _collect_emissions(module):
                if relpath != INSTRUMENTS_MODULE:
                    emitted[emission.name] = \
                        emitted.get(emission.name, 0) + 1
                spec = declared.get(emission.name)
                if spec is None:
                    yield self.project_finding(
                        project, relpath, emission.line,
                        f"emission names undeclared instrument "
                        f"'{emission.name}'; declare it in "
                        "repro.obs.instruments.INSTRUMENTS",
                    )
                    continue
                if emission.opaque_labels:
                    continue  # **labels forwarding: not statically checkable
                _, labelnames, _ = spec
                if emission.labels != set(labelnames):
                    declared_txt = ",".join(sorted(labelnames)) or "(none)"
                    used_txt = ",".join(sorted(emission.labels)) or "(none)"
                    yield self.project_finding(
                        project, relpath, emission.line,
                        f"emission of '{emission.name}' uses label keys "
                        f"{used_txt} but the instrument declares "
                        f"{declared_txt}",
                    )

        for name in sorted(declared):
            if emitted.get(name, 0) == 0:
                _, _, decl_line = declared[name]
                yield self.project_finding(
                    project, INSTRUMENTS_MODULE, decl_line,
                    f"instrument '{name}' is declared but has no "
                    "emission site outside the registry (dead "
                    "instrument)",
                )

        yield from self._check_docs(project, declared)

    # -- registry parsing ------------------------------------------------
    @staticmethod
    def _declared_instruments(
        module: "ModuleUnit",
    ) -> Optional[Dict[str, Tuple[str, Tuple[str, ...], int]]]:
        """``name -> (kind, labelnames, declaration line)``, or ``None``."""
        table: Optional[ast.Dict] = None
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "INSTRUMENTS"
                   for t in targets):
                if isinstance(stmt.value, ast.Dict):
                    table = stmt.value
                break
        if table is None:
            return None
        declared: Dict[str, Tuple[str, Tuple[str, ...], int]] = {}
        for key, value in zip(table.keys, table.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Call)):
                return None
            kind = ""
            if value.args and isinstance(value.args[0], ast.Constant):
                kind = str(value.args[0].value)
            label_expr: Optional[ast.expr] = None
            if len(value.args) >= 3:
                label_expr = value.args[2]
            for kw in value.keywords:
                if kw.arg == "labelnames":
                    label_expr = kw.value
                elif kw.arg == "kind" and isinstance(kw.value, ast.Constant):
                    kind = str(kw.value.value)
            labelnames: Tuple[str, ...] = ()
            if isinstance(label_expr, (ast.Tuple, ast.List)):
                labelnames = tuple(
                    e.value for e in label_expr.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)
                )
            declared[key.value] = (kind, labelnames, key.lineno)
        return declared

    # -- docs cross-check -------------------------------------------------
    def _check_docs(
        self,
        project: "ProjectIndex",
        declared: Dict[str, Tuple[str, Tuple[str, ...], int]],
    ) -> Iterator[Finding]:
        doc_path = None
        if project.root is not None:
            for base in (project.root, project.root.parent):
                candidate = base / OBSERVABILITY_DOC
                if candidate.is_file():
                    doc_path = candidate
                    break
        if doc_path is None:
            return
        documented: Dict[str, Tuple[Set[str], int]] = {}
        text = doc_path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _DOC_METRIC_RE.finditer(line):
                name = match.group(1)
                labels = {
                    part.strip()
                    for part in (match.group(2) or "").split(",")
                    if part.strip()
                }
                documented.setdefault(name, (labels, lineno))
        for name in sorted(documented):
            labels, lineno = documented[name]
            spec = declared.get(name)
            if spec is None:
                yield self.project_finding(
                    project, OBSERVABILITY_DOC, lineno,
                    f"docs/observability.md documents '{name}' which "
                    "INSTRUMENTS does not declare",
                )
                continue
            _, labelnames, _ = spec
            if labels != set(labelnames):
                declared_txt = ",".join(sorted(labelnames)) or "(none)"
                doc_txt = ",".join(sorted(labels)) or "(none)"
                yield self.project_finding(
                    project, OBSERVABILITY_DOC, lineno,
                    f"docs/observability.md documents '{name}' with "
                    f"labels {doc_txt} but the instrument declares "
                    f"{declared_txt}",
                )
        for name in sorted(declared):
            if name not in documented:
                _, _, decl_line = declared[name]
                yield self.project_finding(
                    project, INSTRUMENTS_MODULE, decl_line,
                    f"instrument '{name}' is missing from the "
                    "docs/observability.md instrument table",
                )
