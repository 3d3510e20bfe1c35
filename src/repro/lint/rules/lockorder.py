"""Project-wide lock-order analysis: deadlock cycles and await-under-lock.

Phase 1 (:mod:`repro.lint.project`) summarises every function's lock
acquisitions, calls and awaits.  This rule closes those summaries over
the call graph and checks two global properties the per-function
``lock-discipline`` rule cannot see:

* **lock-order cycles** — if lock A is ever acquired while B is held
  and (possibly through a chain of calls) B while A is held, two
  threads interleaving those paths can deadlock.  Locks are identified
  per *class attribute* (all instances of ``LRUCache._lock`` are
  one node), which is the granularity at which the deadlock argument
  holds.  Re-entry of the same lock is ``lock-discipline``'s concern
  and is ignored here.

* **await under a thread lock** — in the async service/fleet planes,
  ``await`` while holding a ``threading.*`` lock parks the *entire*
  event loop behind a lock that only another loop task might release:
  at best a latency cliff, at worst a single-threaded deadlock.
  ``asyncio`` locks are cooperative and exempt.

The analysis is transitive: a call made while holding a lock inherits
every lock its resolvable callees acquire.  Unresolvable calls
contribute nothing, so findings never rest on a guessed edge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ProjectIndex
    from repro.lint.project import ProgramIndex

__all__ = ["LockOrderRule"]

#: Prefixes of the async planes where await-under-lock is enforced.
ASYNC_PLANES: Tuple[str, ...] = ("repro/service/", "repro/fleet/")


class LockOrderRule(ProjectRule):
    """Global lock-acquisition order must be acyclic; no await under a
    thread lock in the async planes."""

    name = "lock-order"
    title = ("transitive lock-acquisition graph must be acyclic, and "
             "service/fleet async code must not await holding a thread lock")

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        program = project.program
        for cycle in program.lock_cycles():
            members = sorted({edge.src.label for edge in cycle}
                             | {edge.dst.label for edge in cycle})
            evidence = "; ".join(edge.render() for edge in cycle)
            anchor = min(cycle, key=lambda e: (e.module, e.line))
            yield self.project_finding(
                project, anchor.module, anchor.line,
                f"lock-order cycle between {', '.join(members)} "
                f"(deadlock potential): {evidence}",
            )
        yield from self._check_awaits(project, program)

    def _check_awaits(self, project: "ProjectIndex",
                      program: "ProgramIndex") -> Iterator[Finding]:
        for fn in sorted(program.functions(),
                         key=lambda f: (f.module, f.lineno)):
            if not fn.is_async:
                continue
            if not fn.module.startswith(ASYNC_PLANES):
                continue
            for site in fn.awaits:
                if not site.thread_locks:
                    continue
                held = ", ".join(sorted(k.label for k in site.thread_locks))
                yield self.project_finding(
                    project, fn.module, site.line,
                    f"await while holding thread lock(s) {held} in "
                    f"{fn.qualname}: the event loop stalls until the "
                    "lock is released (use asyncio.Lock or release "
                    "before awaiting)",
                )
