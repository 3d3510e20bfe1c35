"""Rule protocol and shared AST helpers.

A rule is a small object with a ``name``, a scope predicate
(:meth:`Rule.applies_to`) and a :meth:`Rule.check` that yields
:class:`~repro.lint.findings.Finding` records for one module.  Rules
never mutate the module or the project index, so the engine is free to
run them in any order.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ModuleUnit, ProjectIndex

__all__ = ["ProjectRule", "Rule", "dotted_name", "iter_statements"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to ``"a.b.c"`` (else ``None``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_statements(
    body: Iterable[ast.stmt], *, into_functions: bool = True
) -> Iterator[ast.AST]:
    """Walk every node under ``body``.

    With ``into_functions=False``, nested ``def``/``lambda`` bodies are
    skipped — the async-safety rule uses this, since code inside a
    nested sync function is not executed on the event loop.
    """
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        # Prune at the popped node, not at its children: a nested def
        # that is itself a statement of ``body`` must be yielded (so
        # callers can see it) but never expanded.
        if not into_functions and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)


class Rule:
    """Base class for project-invariant lint rules."""

    #: Stable identifier used in reports and pragmas.
    name: str = "rule"
    #: One-line human description for ``--list-rules`` and the docs.
    title: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule scans the module at package-relative ``relpath``."""
        return True

    def check(
        self, module: "ModuleUnit", project: "ProjectIndex"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "ModuleUnit", node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            context=module.context_at(line),
        )

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


class ProjectRule(Rule):
    """A rule that runs once over the whole program, not per module.

    The engine calls :meth:`check_project` exactly once per run, after
    every module is parsed, handing it the :class:`ProjectIndex` whose
    ``program`` attribute exposes the phase-1 whole-program summary
    (symbol table, call graph with lock summaries).
    ``check`` is inherited but never invoked for project rules.
    """

    def applies_to(self, relpath: str) -> bool:  # pragma: no cover - unused
        return False

    def check(
        self, module: "ModuleUnit", project: "ProjectIndex"
    ) -> Iterator[Finding]:  # pragma: no cover - project rules don't run per-module
        return iter(())

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        project: "ProjectIndex",
        relpath: str,
        line: int,
        message: str,
        *,
        col: int = 0,
    ) -> Finding:
        module = project.module_units.get(relpath)
        context = module.context_at(line) if module is not None else ""
        return Finding(
            rule=self.name,
            path=relpath,
            line=line,
            col=col,
            message=message,
            context=context,
        )
