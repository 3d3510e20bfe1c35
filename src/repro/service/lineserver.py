"""The JSON-lines TCP front end shared by a replica and the fleet router.

:class:`LineServer` owns everything about *being a server* that does
not depend on what the requests mean: the listener, the per-connection
read loop (with the oversize-line refusal), the decode → validate →
dispatch → error-envelope step of one line, the request deadline, and
the in-flight count a graceful drain waits on.  A subclass supplies
``_dispatch`` (what an op does) and ``_error_response`` (how a failure
is accounted and flagged).

:class:`LoopThreadRunner` runs one such server on a background thread
with its own event loop — the shape tests, benchmarks and the
supervisor embed a replica or a router in.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import weakref
from typing import Any, Callable, Coroutine, Dict, Optional, Set, Tuple, TypeVar

from repro import obs
from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.resilience import CircuitBreaker, Deadline
from repro.service import protocol

__all__ = ["LineServer", "LoopThreadRunner"]

T = TypeVar("T")


class _Listener(socket.socket):
    """A listening socket that remembers every connection it accepted.

    asyncio accepts a connection in the listener's callback and wraps it
    in a transport in a later loop turn, in a task of its own.  A
    connection accepted in a server's last turns can miss the wrap: the
    loop's teardown cancels the task unstarted (or the wrap fails on the
    closed listener), and the socket stays open in a reference cycle
    until a garbage collection, while its peer waits out its whole
    request budget.  :meth:`end_accepted` ends every one of them.
    """

    def __init__(self, family: int) -> None:
        super().__init__(family, socket.SOCK_STREAM)
        self._accepted: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()

    def accept(self) -> Tuple[socket.socket, Any]:
        conn, address = super().accept()
        self._accepted.add(conn)
        return conn, address

    def end_accepted(self) -> None:
        """Shut down every accepted connection: the peer reads EOF, a
        transport over the socket sees it too and closes itself."""
        for conn in list(self._accepted):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed already, or the peer went first


class LineServer:
    """Listener + connection loop + one-line request handling."""

    def __init__(self, config: Any) -> None:
        #: ``ServiceConfig`` or ``RouterConfig``: this class reads its
        #: ``host``, ``port``, ``max_line_bytes``, ``request_timeout``,
        #: ``breaker_failure_threshold``/``_reset_timeout`` and ``clock``.
        self.config = config
        #: The bound port, once :meth:`_listen` has run.
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {"connections": 0, "requests": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        self._listener: Optional[_Listener] = None
        self._stop: Optional[asyncio.Event] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        # All event-loop-confined.
        self._live = False
        self._inflight_requests = 0
        self._idle: Optional[asyncio.Event] = None

    def _make_breaker(self, name: str) -> CircuitBreaker:
        """A breaker on the config's thresholds and (injectable) clock."""
        def record_transition(previous: str, to: str) -> None:
            obs.counter_inc("repro_breaker_transitions_total",
                            breaker=name, to=to)

        return CircuitBreaker(
            name,
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
            clock=self.config.clock,
            on_transition=record_transition,
        )

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        raise NotImplementedError

    async def _listen(self) -> None:
        """Bind the listener; ``port`` and ``live`` are valid afterwards."""
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        family, _, _, _, address = (await asyncio.get_running_loop().getaddrinfo(
            self.config.host or None, self.config.port,
            type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE))[0]
        self._listener = _Listener(family)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind(address)
        except OSError:
            self._listener.close()
            raise
        self._server = await asyncio.start_server(
            self._accept, sock=self._listener,
            limit=self.config.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._live = True

    def request_stop(self) -> None:
        """Stop accepting and drop open connections (idempotent)."""
        if self._stop is not None:
            self._stop.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`request_stop`, then tear the listener down."""
        assert self._stop is not None and self._server is not None
        assert self._listener is not None
        await self._stop.wait()
        self._server.close()
        self._listener.end_accepted()
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._live = False

    async def run(self) -> None:
        """Start and serve until stopped (the CLI entry point)."""
        await self.start()
        await self.wait_closed()

    async def _wait_idle(self, timeout: Optional[float]) -> int:
        """Wait for in-flight requests to land; returns how many did not."""
        if self._inflight_requests > 0:
            assert self._idle is not None
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass
        return self._inflight_requests

    # -- connection handling -------------------------------------------------
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Coroutine[Any, Any, None]:
        """Register a transport the moment it is made.

        asyncio runs the returned handler as a task, which a stop may
        cancel unstarted, so its ``finally`` never runs; a writer known
        from here is still closed by :meth:`wait_closed` (on 3.12+,
        whose ``Server.wait_closed`` waits for every transport, the
        stop would otherwise never finish).
        """
        self._writers.add(writer)
        return self._handle_connection(reader, writer)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line outgrew max_line_bytes: answer with a
                    # protocol error and drop the connection — the
                    # stream cannot be resynchronised mid-line, and
                    # reading further would buffer attacker-controlled
                    # bytes into memory.
                    await self._send(writer, self._error_response(
                        ProtocolError(
                            "request line exceeds "
                            f"{self.config.max_line_bytes} bytes"
                        )))
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                await self._send(writer, response)
                if response.get("op") == "shutdown" and response.get("ok"):
                    self.request_stop()
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _send(self, writer: asyncio.StreamWriter,
                    response: Dict[str, Any]) -> None:
        writer.write(protocol.encode_line(response))
        await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        self.counters["requests"] += 1
        self._inflight_requests += 1
        if self._idle is not None:
            self._idle.clear()
        request_id = None
        try:
            doc = protocol.decode_line(line)
            request_id = doc.get("id")
            protocol.validate_request(doc)
            response = await self._dispatch(doc)
        except Exception as exc:  # never let a handler kill the server
            response = self._error_response(exc)
        finally:
            self._inflight_requests -= 1
            if self._inflight_requests == 0 and self._idle is not None:
                self._idle.set()
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def _error_payload(self, exc: BaseException) -> Dict[str, Any]:
        """The error envelope; a shed carries its ``retry_after_ms``."""
        response: Dict[str, Any] = {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
        if isinstance(exc, ServiceOverloadedError):
            response["overloaded"] = True
            response["retry_after_ms"] = exc.retry_after_ms
        return response

    def _error_response(self, exc: BaseException) -> Dict[str, Any]:
        """Account for one failed request and build its envelope."""
        raise NotImplementedError

    def _request_deadline(self, doc: Dict[str, Any]) -> Deadline:
        """One shared budget: ``min(server cap, client timeout_ms)``.

        The resulting deadline gates everything the request does —
        admission wait, retries, executor hops, replica forwards and
        failovers — as one budget, not one per step.
        """
        budget = self.config.request_timeout
        timeout_ms = doc.get("timeout_ms")
        if timeout_ms is not None:
            client_budget = timeout_ms / 1000.0
            budget = (client_budget if budget is None
                      else min(budget, client_budget))
        return (Deadline.after(budget) if budget is not None
                else Deadline.never())


class LoopThreadRunner:
    """Run one :class:`LineServer` on a background event-loop thread.

    The caller's thread stays free, the server gets its own loop, and
    ``stop()`` (or the context manager exit) tears everything down.
    ``port`` is available once the context is entered.  :meth:`call`
    runs a coroutine on the server's loop from any thread — which is
    what keeps the servers themselves free of locks.
    """

    #: Thread name and the noun used in error messages.
    thread_name = "repro-server"
    what = "server"

    def __init__(self) -> None:
        self.port: Optional[int] = None
        self._server: Optional[LineServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _make_server(self) -> LineServer:
        """Build (or return) the server; runs on the loop thread."""
        raise NotImplementedError

    def start(self) -> "LoopThreadRunner":
        self._thread = threading.Thread(
            target=self._thread_main, name=self.thread_name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError(f"{self.what} failed to start within 30s")
        if self._startup_error is not None:
            raise ServiceError(
                f"{self.what} failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_stop)
            except RuntimeError:
                pass  # loop already closed (a drain beat us to it)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def call(self, factory: Callable[[], Coroutine[Any, Any, T]],
             timeout: float = 30.0) -> T:
        """Run ``factory()`` (a coroutine) on the server's event loop."""
        if self._loop is None:
            raise ServiceError(f"the {self.what} never started")
        future = asyncio.run_coroutine_threadsafe(factory(), self._loop)
        return future.result(timeout=timeout)

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self._server = self._make_server()
            await self._server.start()
        except BaseException as exc:  # hand startup failures to start()
            self._startup_error = exc
            self._started.set()
            return
        self.port = self._server.port
        self._started.set()
        await self._server.wait_closed()

    def __enter__(self) -> "LoopThreadRunner":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
