"""Project-wide contract rules: wire protocol and instrument agreement.

Both rules consume the phase-1 :class:`~repro.lint.project.ProgramIndex`
and check a *shared vocabulary* invariant:

``wire-contract``
    The ``protocol.OPS`` table is the single declaration of the wire
    vocabulary, and server and router dispatch from it *by name*.  So
    for those two layers the contract is structural: every row needs a
    ``_handle_<op>`` on the server and, on the router, the method of
    its routing policy (``_local_<op>`` for ops the router answers
    itself, ``_route_<policy>`` otherwise) — and neither may define a
    handler the table has no row for.  The client API and the CLI still
    *speak* ops (request payloads, subcommands), so there the rule
    keeps checking that every op surfaces and that no undeclared
    ("phantom") op is spoken.

``instrument-contract``
    ``repro.obs.instruments.INSTRUMENTS`` is the single source of
    truth for metrics.  Every emission site must name a declared
    instrument with exactly the declared label keys; every declared
    instrument must have at least one emission site; and the table in
    ``docs/observability.md`` must list exactly the declared names
    with matching label sets.

Both rules skip silently when the anchoring module is not part of the
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

__all__ = ["InstrumentContractRule", "WireContractRule"]


PROTOCOL_MODULE = "repro/service/protocol.py"
SERVER_MODULE = "repro/service/server.py"
ROUTER_MODULE = "repro/fleet/router.py"

#: Layers that speak ops rather than dispatch on the table:
#: (layer, relpath, human description of the expected surface).
SPEAKING_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("client", "repro/service/client.py",
     "a ServiceClient method or request payload"),
    ("cli", "repro/cli.py", "a subcommand invoking the client method"),
)


def _spoken_ops(module: "ModuleUnit") -> List[Tuple[str, int]]:
    """Every op-name string literal this module *speaks*, with its line.

    An op is spoken by an ``"op"`` key in a dict literal with a constant
    string value (request construction).  Attribute or method *names*
    never count — they establish coverage, not vocabulary.
    """
    spoken: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                spoken.append((value.value, value.lineno))
    return spoken


def _surfaced_ops(module: "ModuleUnit") -> Set[str]:
    """Op names this module covers by *naming* rather than comparing.

    Methods named exactly after an op (client API) and attribute calls
    named after an op (CLI invoking the client) count.
    """
    surfaced: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            surfaced.add(node.name)
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute):
            surfaced.add(node.func.attr)
    return surfaced


def _methods(module: "ModuleUnit") -> Dict[str, int]:
    """Every function/method name defined in the module, with its line."""
    return {
        node.name: node.lineno for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class WireContractRule(ProjectRule):
    """Every row of the op table is served, routed, and surfaced."""

    name = "wire-contract"
    title = ("every op in protocol.OPS has its server handler and router "
             "routing method; the client API and the CLI surface it; no "
             "layer handles an op the table does not declare")

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        protocol = project.module_units.get(PROTOCOL_MODULE)
        if protocol is None:
            return
        table = self._declared_ops(protocol)
        if table is None:
            yield self.project_finding(
                project, PROTOCOL_MODULE, 1,
                "could not parse the OPS table (a dict literal of string "
                "keys to OpSpec(...) rows with literal routing); the wire "
                "vocabulary must stay statically enumerable",
            )
            return
        yield from self._check_dispatch(
            project, "server", SERVER_MODULE,
            {f"_handle_{op}": op for op in table}, ("_handle_",),
        )
        yield from self._check_dispatch(
            project, "router", ROUTER_MODULE,
            {(f"_local_{op}" if routing == "local"
              else "_route_" + routing.replace("-", "_")): op
             for op, routing in table.items()},
            ("_local_", "_route_"),
        )
        for layer, relpath, expectation in SPEAKING_LAYERS:
            module = project.module_units.get(relpath)
            if module is None:
                continue
            spoken = _spoken_ops(module)
            covered = {name for name, _ in spoken} | _surfaced_ops(module)
            for op in table:
                if op not in covered:
                    yield self.project_finding(
                        project, relpath, 1,
                        f"op '{op}' declared in protocol.OPS has no "
                        f"surface in the {layer} layer; expected "
                        f"{expectation}",
                    )
            reported: Set[str] = set()
            for op, line in spoken:
                if op in table or op in reported:
                    continue
                reported.add(op)
                yield self.project_finding(
                    project, relpath, line,
                    f"the {layer} layer speaks op '{op}' which "
                    "protocol.OPS does not declare (phantom op: "
                    "validate_request would reject it before dispatch)",
                )

    def _check_dispatch(
        self, project: "ProjectIndex", layer: str, relpath: str,
        required: Dict[str, str], prefixes: Tuple[str, ...],
    ) -> Iterator[Finding]:
        """A by-name dispatch layer: ``required`` maps method -> an op
        that needs it; any other ``prefixes`` method is a phantom."""
        module = project.module_units.get(relpath)
        if module is None:
            return
        defined = _methods(module)
        for method, op in sorted(required.items()):
            if method not in defined:
                yield self.project_finding(
                    project, relpath, 1,
                    f"op '{op}' declared in protocol.OPS has no "
                    f"'{method}' in the {layer} layer; dispatch resolves "
                    "it by that name",
                )
        for method, line in sorted(defined.items()):
            if method.startswith(prefixes) and method not in required:
                yield self.project_finding(
                    project, relpath, line,
                    f"the {layer} layer defines '{method}' but no row of "
                    "protocol.OPS dispatches to it (phantom op: "
                    "validate_request would reject it before dispatch)",
                )

    @staticmethod
    def _declared_ops(protocol: "ModuleUnit") -> Optional[Dict[str, str]]:
        """``op -> routing policy`` from the ``OPS`` dict literal."""
        for stmt in protocol.tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            if not any(isinstance(t, ast.Name) and t.id == "OPS"
                       for t in targets):
                continue
            if not isinstance(stmt.value, ast.Dict):
                return None
            table: Dict[str, str] = {}
            for key, row in zip(stmt.value.keys, stmt.value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(row, ast.Call)):
                    return None
                routing = "local"
                for kw in row.keywords:
                    if kw.arg == "routing":
                        if not (isinstance(kw.value, ast.Constant)
                                and isinstance(kw.value.value, str)):
                            return None
                        routing = kw.value.value
                table[key.value] = routing
            return table
        return None


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
