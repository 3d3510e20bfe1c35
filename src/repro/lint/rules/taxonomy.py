"""Error-taxonomy discipline.

Two checks, both repository-wide:

* **Generic raises** — ``raise Exception(...)`` / ``RuntimeError`` /
  ``BaseException`` hide intent from callers that dispatch on the
  :mod:`repro.errors` hierarchy; domain failures must raise a
  :class:`~repro.errors.ReproError` subclass.  Builtin *contract*
  errors (``ValueError``, ``TypeError``, ...) stay legal: the package
  doctrine is that programming errors propagate as themselves.

* **Broad handlers** — ``except Exception:`` may not swallow.  The
  handler must re-raise, convert (raise anything), reference the bound
  exception (logging / payload building counts), or record an outcome
  through a collector call (``.append``, ``.escalate``, ``.record``,
  ``.set_result``, ``.put``, ``.add``).  A *bare* ``except:`` is held
  to the strictest standard: it must contain a ``raise``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name

__all__ = ["ErrorTaxonomyRule"]

#: Raising these directly loses taxonomy information.
GENERIC_RAISES = {"Exception", "BaseException", "RuntimeError"}

#: Broad exception classes whose handlers are audited.
BROAD_CATCHES = {"Exception", "BaseException"}

#: Method names that count as "recording" the failure.
RECORDING_METHODS = {
    "append", "escalate", "record", "set_result", "put", "add",
}


def _type_names(node: Optional[ast.expr]) -> Iterator[str]:
    if node is None:
        return
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _type_names(element)
        return
    dotted = dotted_name(node)
    if dotted is not None:
        yield dotted.rsplit(".", 1)[-1]


class ErrorTaxonomyRule(Rule):
    name = "error-taxonomy"
    title = "raises use the repro.errors hierarchy; broad excepts never swallow"

    def check(self, module, project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(module, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)

    def _check_raise(self, module, node: ast.Raise) -> Iterator[Finding]:
        exc = node.exc
        if exc is None:
            return  # bare re-raise is always fine
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = dotted_name(target)
        if dotted is None:
            return
        name = dotted.rsplit(".", 1)[-1]
        if name in GENERIC_RAISES:
            yield self.finding(
                module, node,
                f"raise of generic '{name}' loses the error taxonomy; "
                "raise a repro.errors subclass (ReproError hierarchy) "
                "instead",
            )

    def _check_handler(
        self, module, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        bare = handler.type is None
        broad = bare or any(
            name in BROAD_CATCHES for name in _type_names(handler.type)
        )
        if not broad:
            return
        has_raise = any(
            isinstance(node, ast.Raise) for node in ast.walk(handler)
        )
        if bare:
            if not has_raise:
                yield self.finding(
                    module, handler,
                    "bare 'except:' swallows everything including "
                    "KeyboardInterrupt; re-raise, or catch "
                    "'Exception' and convert/record it",
                )
            return
        if has_raise:
            return
        if self._references_exception(handler) or self._records(handler):
            return
        yield self.finding(
            module, handler,
            "broad 'except Exception:' swallows the failure; re-raise, "
            "convert to a ReproError, or record an outcome "
            "(a report collector)",
        )

    @staticmethod
    def _references_exception(handler: ast.ExceptHandler) -> bool:
        if handler.name is None:
            return False
        for node in ast.walk(handler):
            if isinstance(node, ast.Name) and node.id == handler.name and (
                isinstance(node.ctx, ast.Load)
            ):
                return True
        return False

    @staticmethod
    def _records(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RECORDING_METHODS
            ):
                return True
        return False
