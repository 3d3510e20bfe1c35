"""The analysis engine: module loading, annotation index, rule driving.

One :class:`LintEngine` run parses every ``*.py`` under the given
roots, builds the project-wide annotation index (``guarded-by`` /
``holds-lock`` declarations), runs every rule over every in-scope
module, and applies inline ``lint: allow`` pragmas — the one way to
suppress a finding.  Rendering lives in :mod:`repro.lint.report`.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import LintError
from repro.lint.annotations import ModuleAnnotations, extract_annotations
from repro.lint.findings import Finding
from repro.lint.project import ProgramIndex, build_program_index
from repro.lint.rules import Rule, default_rules, rule_names
from repro.lint.rules.base import ProjectRule

__all__ = ["LintEngine", "LintResult", "ModuleUnit", "ProjectIndex"]


@dataclass
class ModuleUnit:
    """One parsed module plus its pragma annotations."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    annotations: ModuleAnnotations
    #: ``(first_line, last_line, qualname)`` scopes, outermost first.
    _scopes: List[Tuple[int, int, str]] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, relpath: str) -> "ModuleUnit":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        unit = cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            annotations=extract_annotations(source, relpath),
        )
        unit._index_scopes()
        return unit

    def _index_scopes(self) -> None:
        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    qualname = (
                        f"{prefix}.{child.name}" if prefix else child.name
                    )
                    end = getattr(child, "end_lineno", child.lineno)
                    self._scopes.append((child.lineno, end or child.lineno,
                                         qualname))
                    visit(child, qualname)
                else:
                    visit(child, prefix)

        visit(self.tree, "")

    def context_at(self, line: int) -> str:
        """Qualname of the innermost class/function scope at ``line``."""
        best = ""
        best_span = None
        for first, last, qualname in self._scopes:
            if first <= line <= last:
                span = last - first
                if best_span is None or span <= best_span:
                    best, best_span = qualname, span
        return best


@dataclass
class ProjectIndex:
    """Cross-module annotation index consumed by the rules.

    v2: besides the pragma maps, the index now carries every parsed
    :class:`ModuleUnit` (``module_units``) and lazily builds the phase-1
    :class:`~repro.lint.project.ProgramIndex` — symbol table and call
    graph with lock summaries — the first time a project-scoped rule
    asks for it via :attr:`program`.
    """

    #: ``(module relpath, class name) -> {attribute: (lock, ...)}``.
    guarded_attrs: Dict[Tuple[str, str], Dict[str, Tuple[str, ...]]] = field(
        default_factory=dict
    )
    #: ``id(FunctionDef node) -> (lock, ...)`` for holds-lock methods.
    holds_lock: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: Every parsed module in the run, keyed by package-relative path.
    module_units: Dict[str, ModuleUnit] = field(default_factory=dict)
    #: Engine root, so project rules can locate docs/ next to the tree.
    root: Optional[Path] = None
    _program: Optional[ProgramIndex] = field(default=None, repr=False)

    @property
    def program(self) -> ProgramIndex:
        """The phase-1 whole-program summary (built on first access)."""
        if self._program is None:
            self._program = build_program_index(
                [self.module_units[k] for k in sorted(self.module_units)]
            )
        return self._program

    def index_module(self, module: ModuleUnit) -> List[Finding]:
        problems: List[Finding] = []
        problems.extend(self._index_guarded(module))
        problems.extend(self._index_holds(module))
        return problems

    # -- guarded-by ------------------------------------------------------
    def _index_guarded(self, module: ModuleUnit) -> List[Finding]:
        lines = dict(module.annotations.guarded_by)
        if not lines:
            return []
        problems: List[Finding] = []
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for stmt in ast.walk(class_node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
                hit = None
                for line in range(stmt.lineno, end + 1):
                    if line in lines:
                        hit = line
                        break
                if hit is None:
                    continue
                locks = lines.pop(hit)
                attr = self._assigned_attr(stmt)
                if attr is None:
                    problems.append(_config_finding(
                        module, stmt.lineno,
                        "guarded-by must annotate a 'self.<attr>' or "
                        "class-level attribute assignment",
                    ))
                    continue
                key = (module.relpath, class_node.name)
                self.guarded_attrs.setdefault(key, {})[attr] = locks
        for line in sorted(lines):
            problems.append(_config_finding(
                module, line,
                "guarded-by pragma is not attached to an attribute "
                "assignment inside a class",
            ))
        return problems

    @staticmethod
    def _assigned_attr(stmt: ast.stmt) -> Optional[str]:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id == "self":
                return target.attr
            if isinstance(target, ast.Name):
                return target.id
        return None

    # -- holds-lock ------------------------------------------------------
    def _index_holds(self, module: ModuleUnit) -> List[Finding]:
        lines = dict(module.annotations.holds_lock)
        if not lines:
            return []
        problems: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            body_start = node.body[0].lineno if node.body else node.lineno
            hit = None
            for line in range(node.lineno, body_start + 1):
                if line in lines:
                    hit = line
                    break
            if hit is not None:
                self.holds_lock[id(node)] = lines.pop(hit)
        for line in sorted(lines):
            problems.append(_config_finding(
                module, line,
                "holds-lock pragma is not attached to a def",
            ))
        return problems


def _config_finding(module: ModuleUnit, line: int, message: str) -> Finding:
    return Finding(
        rule="lint-config",
        path=module.relpath,
        line=line,
        col=0,
        message=message,
        context=module.context_at(line),
    )


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    modules_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


class LintEngine:
    """Run a ruleset over one or more source roots.

    ``root`` anchors package-relative paths: findings for
    ``<root>/repro/core/common.py`` report ``repro/core/common.py``,
    which keeps paths and fingerprints stable across checkouts.
    """

    def __init__(
        self,
        root: Path,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        self.root = Path(root)
        self.rules: List[Rule] = (
            list(rules) if rules is not None else default_rules()
        )

    # -- discovery -------------------------------------------------------
    def discover(self, paths: Optional[Iterable[Path]] = None) -> List[Path]:
        """Sorted ``*.py`` files under ``paths`` (default: the root)."""
        roots = [Path(p) for p in paths] if paths else [self.root]
        files: List[Path] = []
        for candidate in roots:
            if candidate.is_dir():
                files.extend(sorted(candidate.rglob("*.py")))
            elif candidate.suffix == ".py":
                files.append(candidate)
            else:
                raise LintError(f"cannot lint {candidate}: not a python file "
                                "or directory")
        return files

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.name

    # -- execution -------------------------------------------------------
    def run(self, paths: Optional[Iterable[Path]] = None) -> LintResult:
        """Run phase 1 (parse + index) then phase 2 (rules)."""
        result = LintResult(rules_run=[rule.name for rule in self.rules])
        modules: List[ModuleUnit] = []
        for path in self.discover(paths):
            relpath = self._relpath(path)
            try:
                modules.append(ModuleUnit.load(path, relpath))
            except SyntaxError as exc:
                result.findings.append(Finding(
                    rule="lint-config",
                    path=relpath,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"module does not parse: {exc.msg}",
                ))
        result.modules_scanned = len(modules)

        index = ProjectIndex(root=self.root)
        for module in modules:
            index.module_units[module.relpath] = module
            result.findings.extend(index.index_module(module))

        known = set(rule_names()) | {rule.name for rule in self.rules} | {"all"}
        for module in modules:
            for pragmas in module.annotations.allows.values():
                for pragma in pragmas:
                    if pragma.rule not in known:
                        result.findings.append(_config_finding(
                            module, pragma.line,
                            f"allow pragma names unknown rule "
                            f"{pragma.rule!r}; known: "
                            f"{', '.join(sorted(known - {'all'}))}",
                        ))

        module_rules = [r for r in self.rules
                        if not isinstance(r, ProjectRule)]
        project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]

        def record(module: ModuleUnit, finding: Finding) -> None:
            if module.annotations.allows_for(finding.line, finding.rule):
                result.suppressed.append(dataclasses.replace(
                    finding, suppressed_by="inline-allow",
                ))
            else:
                result.findings.append(finding)

        for module in modules:
            for rule in module_rules:
                if not rule.applies_to(module.relpath):
                    continue
                for finding in rule.check(module, index):
                    record(module, finding)

        # Phase 2: project-scoped rules run over the whole tree exactly
        # once; inline allows are honoured via the owning module.
        for rule in project_rules:
            for finding in rule.check_project(index):
                owner = index.module_units.get(finding.path)
                if owner is not None:
                    record(owner, finding)
                else:
                    result.findings.append(finding)

        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result
