"""Async-safety: no blocking calls on the event loop.

Scans every ``async def`` under ``repro/service/`` and
``repro/fleet/`` (and in ``repro/resilience.py``, whose retry/breaker
helpers run on the loop)
for calls that stall the event loop: ``time.sleep``, the *sync*
``retry_call``, file/socket/subprocess I/O, bare ``Future.result()``
joins, and zero-argument synchronisation joins (``.acquire()`` /
``.wait()`` / ``.join()`` / ``.get()``).  The service dispatches
blocking work through ``run_in_executor``; code inside a nested *sync*
``def`` (the executor target) is therefore not scanned, and a call that
is directly ``await``-ed is by definition not a blocking sync call.

Synchronisation calls need one more exemption: an object *constructed
from* ``asyncio`` (``self._semaphore = asyncio.Semaphore(...)``) has
coroutine ``acquire``/``wait``/``get`` methods that are handed to
``await``/``asyncio.wait_for`` rather than awaited in place — the rule
tracks every receiver assigned from an ``asyncio.*`` constructor across
the module and treats its methods as non-blocking.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, iter_statements

__all__ = ["AsyncSafetyRule"]

#: Fully-dotted callables that block the calling thread.
BLOCKING_DOTTED = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.socket",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
    "shutil.copyfileobj",
}

#: Bare names that block (``retry_call`` is the sync retry helper —
#: its event-loop twin is ``retry_call_async``).
BLOCKING_NAMES = {"open", "input", "retry_call"}

#: Blocking zero-argument methods regardless of receiver type.
BLOCKING_METHODS = {
    "read_text", "read_bytes", "write_text", "write_bytes",
}

#: Zero-argument synchronisation joins: blocking on ``threading`` /
#: ``queue`` objects, coroutines on ``asyncio`` ones — flagged unless
#: the receiver is a tracked asyncio primitive or the call is awaited.
BLOCKING_SYNC_METHODS = {"acquire", "join", "wait", "get"}


class AsyncSafetyRule(Rule):
    name = "async-blocking"
    title = "no blocking calls directly inside async service code"

    def applies_to(self, relpath: str) -> bool:
        return (relpath.startswith("repro/service/")
                or relpath.startswith("repro/fleet/")
                or relpath.startswith("repro/livetip/")
                or relpath == "repro/resilience.py")

    def check(self, module, project) -> Iterator[Finding]:
        asyncio_receivers = self._asyncio_receivers(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_def(
                    module, node, asyncio_receivers
                )

    @staticmethod
    def _asyncio_receivers(tree: ast.AST) -> Set[str]:
        """Names/attributes assigned from an ``asyncio.*`` constructor."""
        receivers: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            dotted = dotted_name(value.func)
            if dotted is None or not dotted.startswith("asyncio."):
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    receivers.add(target.attr)
                elif isinstance(target, ast.Name):
                    receivers.add(target.id)
        return receivers

    def _check_async_def(
        self, module, fn: ast.AsyncFunctionDef,
        asyncio_receivers: Set[str],
    ) -> Iterator[Finding]:
        awaited: Set[int] = set()
        for node in iter_statements(fn.body, into_functions=False):
            if isinstance(node, ast.Await):
                awaited.add(id(node.value))
        for node in iter_statements(fn.body, into_functions=False):
            if isinstance(node, ast.AsyncFunctionDef):
                continue  # reported by its own walk
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            label = self._blocking_label(node, asyncio_receivers)
            if label is not None:
                yield self.finding(
                    module, node,
                    f"blocking call '{label}' inside "
                    f"'async def {fn.name}'; dispatch through "
                    "run_in_executor or use the async variant",
                )

    @staticmethod
    def _blocking_label(call: ast.Call,
                        asyncio_receivers: Set[str]) -> "str | None":
        func = call.func
        dotted = dotted_name(func)
        if dotted is not None:
            if dotted in BLOCKING_DOTTED:
                return dotted
            if dotted in BLOCKING_NAMES:
                return dotted
        if isinstance(func, ast.Attribute):
            if func.attr in BLOCKING_METHODS:
                return f".{func.attr}()"
            if (
                func.attr == "result"
                and not call.args
                and not call.keywords
            ):
                return ".result()"
            if (
                func.attr in BLOCKING_SYNC_METHODS
                and not call.args
                and not call.keywords
            ):
                receiver = func.value
                if isinstance(receiver, ast.Attribute):
                    name = receiver.attr
                elif isinstance(receiver, ast.Name):
                    name = receiver.id
                else:
                    name = None
                if name not in asyncio_receivers:
                    return f".{func.attr}()"
        return None
