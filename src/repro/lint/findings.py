"""Finding records produced by the lint engine.

A :class:`Finding` pins one rule violation to a file, line and column.
Its *fingerprint* (SARIF ``partialFingerprints``, which code hosts use
to tell new findings from pre-existing ones) deliberately excludes the
line/column — unrelated edits that shift code up or down must not make
a finding look new — and, since v2, the path as well: moving a module
(``repro/service/x.py`` → ``repro/fleet/x.py``) keeps its identity.
The identity of a finding is ``(rule, context, message)`` where
``context`` is the enclosing ``Class.method`` qualname; messages are
written to name their subject (instrument, lock), which keeps the
triple unique in practice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``path`` is package-relative and POSIX-style (``repro/core/...``)
    so fingerprints are stable across checkouts and platforms.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    context: str = ""
    #: ``"inline-allow"`` when a pragma suppressed the finding.
    suppressed_by: str = field(default="", compare=False)

    @property
    def fingerprint(self) -> str:
        """Location- and path-independent identity (SARIF dedup key)."""
        payload = "|".join((self.rule, self.context, self.message))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }
        if self.suppressed_by:
            doc["suppressed_by"] = self.suppressed_by
        return doc

    def render(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        ctx = f" [{self.context}]" if self.context else ""
        return f"{where}: {self.rule}: {self.message}{ctx}"
