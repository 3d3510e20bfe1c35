"""A small blocking client for the query service.

Used by the ``python -m repro query`` subcommand, the tests and the
benchmarks.  One socket, JSON lines both ways; every request blocks for
its response (the server supports pipelining, the client keeps it
simple).

Overload handling: when the server sheds a request (``"overloaded":
true`` with a ``retry_after_ms`` hint) the client raises
:class:`~repro.errors.ServiceOverloadedError` — but ``query`` and
``ingest`` first retry up to ``overload_retries`` times, sleeping a
*jittered* fraction of the server's hint (capped by
``max_retry_sleep``).  The jitter RNG is seeded, so tests replay the
exact backoff schedule; the jitter itself keeps a fleet of shed clients
from re-arriving as one synchronised stampede.

Connection handling: a dropped TCP connection (refused connect, reset
mid-write, server gone mid-read) is retried with a fresh connection up
to ``reconnect_attempts`` times, sleeping a capped jittered backoff
between attempts; exhaustion raises
:class:`~repro.errors.ServiceUnavailableError`.  This is at-least-once
delivery — a request that died after the server read it may execute
twice on resend — which is safe for the idempotent operations this
client speaks (queries re-answer, a duplicate ingest is rejected by
batch validation rather than applied twice).  A response *timeout* is
deliberately not retried: the request may still be executing, and only
the caller knows whether resending is safe.

Conditional queries: ``query`` keeps the compact form of the last
:data:`HELD_ANSWERS` tagged answers it received, one per query key, and
sends the held ``values_tag`` as ``if_none_match`` (``""`` when it holds
none).  A reply whose tag matches carries no ``values``; the client
expands fresh rows from what it holds.  A tag is a content hash, so a
reply from any replica or epoch that matches it is the same answer.
"""

from __future__ import annotations

import random
import socket
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import CompactRange, compact_range, expand_range, narrowed
from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service import protocol

__all__ = ["HELD_ANSWERS", "ServiceClient"]

#: Tagged answers one client holds (least recently used dropped first).
#: A full LJ/16 window is 9–11 KB in narrowed compact form (35 KB for
#: Viterbi's float64 cells), so at most ~0.7 MB (2.2 MB) per client.
HELD_ANSWERS = 64

#: A held answer's key: algorithm (lower case), source, first, last as sent.
HeldKey = Tuple[str, int, Optional[int], Optional[int]]


class ServiceClient:
    """Blocking JSON-lines client; usable as a context manager."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 timeout: Optional[float] = 30.0, *,
                 overload_retries: int = 2,
                 max_retry_sleep: float = 1.0,
                 reconnect_attempts: int = 2,
                 reconnect_backoff: float = 0.05,
                 seed: int = 0) -> None:
        if overload_retries < 0:
            raise ValueError("overload_retries must be >= 0")
        if max_retry_sleep < 0:
            raise ValueError("max_retry_sleep must be >= 0")
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        if reconnect_backoff < 0:
            raise ValueError("reconnect_backoff must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.overload_retries = overload_retries
        self.max_retry_sleep = max_retry_sleep
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self._rng = random.Random(seed)
        self._sock: Optional[socket.socket] = None
        self._file = None
        #: ``(values_tag, compact)`` per query key, most recent last.
        self._held: "OrderedDict[HeldKey, Tuple[str, CompactRange]]" = (
            OrderedDict())

    # -- connection -----------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw requests -----------------------------------------------------------
    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, return its (raw) response document.

        A dropped connection (at connect, write or read) is retried on
        a fresh connection up to ``reconnect_attempts`` times with a
        capped jittered backoff; exhaustion raises
        :class:`ServiceUnavailableError`.  A response timeout is not
        retried (the request may still be executing server-side) and
        propagates as-is after dropping the now-desynchronised
        connection.
        """
        attempts = self.reconnect_attempts + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                self.connect()
                assert self._file is not None
                self._file.write(protocol.encode_line(doc))
                self._file.flush()
                line = self._file.readline()
            except TimeoutError:
                # The server may still answer this request later; the
                # connection is desynchronised either way, and a resend
                # could execute the operation twice.  Drop the socket
                # and let the caller decide.
                self.close()
                raise
            except (ConnectionError, OSError) as exc:
                self.close()
                last_error = exc
                if attempt + 1 < attempts:
                    self._reconnect_sleep(attempt)
                continue
            if not line:
                # The server closed the connection without answering —
                # indistinguishable from a reset for our purposes.
                self.close()
                last_error = ServiceError("connection closed by server")
                if attempt + 1 < attempts:
                    self._reconnect_sleep(attempt)
                continue
            return protocol.decode_line(line)
        raise ServiceUnavailableError(
            f"service at {self.host}:{self.port} unreachable after "
            f"{attempts} attempt(s): {last_error}"
        ) from last_error

    def _reconnect_sleep(self, attempt: int) -> None:
        """Capped, jittered exponential backoff between reconnects."""
        delay = min(self.reconnect_backoff * (2 ** attempt),
                    self.max_retry_sleep)
        time.sleep(delay * (0.5 + self._rng.random() / 2))

    def request_ok(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`request`, raising :class:`ServiceError` on errors.

        A shed response becomes :class:`ServiceOverloadedError` carrying
        the server's ``retry_after_ms`` hint so callers can back off.
        """
        response = self.request(doc)
        if not response.get("ok"):
            message = (f"{response.get('error_type', 'error')}: "
                       f"{response.get('error', 'unknown service error')}")
            if response.get("overloaded"):
                raise ServiceOverloadedError(
                    message,
                    retry_after_ms=int(response.get("retry_after_ms", 0)),
                )
            raise ServiceError(message)
        return response

    def _request_retrying_overload(self,
                                   doc: Dict[str, Any]) -> Dict[str, Any]:
        """``request_ok`` with overload retries honouring the hint."""
        for attempt in range(self.overload_retries + 1):
            try:
                return self.request_ok(doc)
            except ServiceOverloadedError as exc:
                if attempt == self.overload_retries:
                    raise
                self._overload_sleep(exc.retry_after_ms)
        raise AssertionError("unreachable")  # pragma: no cover

    def _overload_sleep(self, retry_after_ms: int) -> None:
        """Sleep 50–100% of the hint, never longer than the cap."""
        hint = max(retry_after_ms, 1) / 1000.0
        jittered = hint * (0.5 + self._rng.random() / 2)
        time.sleep(min(jittered, self.max_retry_sleep))

    # -- typed operations ---------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request_ok({"op": "ping"}).get("ok"))

    def status(self) -> Dict[str, Any]:
        return self.request_ok({"op": "status"})

    def shutdown(self) -> None:
        self.request_ok({"op": "shutdown"})
        self.close()

    def query(
        self,
        algorithm: str,
        source: int,
        first: Optional[int] = None,
        last: Optional[int] = None,
        timeout_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run a range query; ``values`` is decoded to float64 arrays.

        ``timeout_ms`` ships the client's end-to-end budget to the
        server, which charges admission queueing and execution against
        it as one deadline.  The query is conditional (module
        docstring): a reply without ``values`` is answered from the
        held answer whose tag it carries.
        """
        doc: Dict[str, Any] = {
            "op": "query", "algorithm": algorithm, "source": source,
        }
        if first is not None:
            doc["first"] = first
        if last is not None:
            doc["last"] = last
        if timeout_ms is not None:
            doc["timeout_ms"] = timeout_ms
        key: HeldKey = (algorithm.lower(), source, first, last)
        held = self._held.get(key)
        doc["if_none_match"] = "" if held is None else held[0]
        # Face-invalid ranges (negative, reversed) die here with a
        # ProtocolError, before a socket is even opened.
        protocol.validate_request(doc)
        response = self._request_retrying_overload(doc)
        tag = response.get("values_tag")
        if "values" in response:
            rows = self.decode_values(response["values"])
            if tag is not None:
                self._hold(key, tag, narrowed(compact_range(rows)))
            response["values"] = rows
        elif held is not None and tag == held[0]:
            self._held.move_to_end(key)
            response["values"] = expand_range(held[1])
        else:
            raise ProtocolError(
                f"query reply omits values for tag {tag!r}, which this "
                "client does not hold")
        return response

    def _hold(self, key: HeldKey, tag: str, compact: CompactRange) -> None:
        self._held[key] = (tag, compact)
        self._held.move_to_end(key)
        while len(self._held) > HELD_ANSWERS:
            self._held.popitem(last=False)

    def temporal(
        self,
        algorithm: str,
        source: int,
        queries: Any,
        timeout_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run a temporal batch; ``results`` is decoded to NumPy arrays.

        ``queries`` is one spec dict or a list of them (see
        ``docs/temporal.md`` for the vocabulary).  The batch is
        validated client-side first, so a malformed spec raises
        :class:`ProtocolError` without touching the server.
        """
        from repro.temporal.timeline import decode_results

        if isinstance(queries, dict):
            queries = [queries]
        doc: Dict[str, Any] = {
            "op": "temporal", "algorithm": algorithm, "source": source,
            "queries": queries,
        }
        if timeout_ms is not None:
            doc["timeout_ms"] = timeout_ms
        protocol.validate_request(doc)
        response = self._request_retrying_overload(doc)
        response["results"] = decode_results(response.get("results", []))
        return response

    def ingest(
        self,
        additions: Optional[List[List[int]]] = None,
        deletions: Optional[List[List[int]]] = None,
        timeout_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "op": "ingest",
            "additions": additions or [],
            "deletions": deletions or [],
        }
        if timeout_ms is not None:
            doc["timeout_ms"] = timeout_ms
        return self._request_retrying_overload(doc)

    def update(
        self,
        kind: str,
        u: Optional[int] = None,
        v: Optional[int] = None,
        timeout_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One single-edge live-tip update (or an explicit ``compact``).

        ``kind`` is ``"insert"`` / ``"delete"`` with an ``(u, v)`` edge,
        or ``"compact"`` with no edge to force the pending update log
        into a durable batch.  The receipt carries the overlay ``seq``,
        ``tip_version`` and ``overlay_depth`` the update landed at.

        Unlike ``ingest``, a shed update is retried client-side only —
        the server never retries it — so an applied insert is never
        re-sent into the overlay's already-present validation.
        """
        doc: Dict[str, Any] = {"op": "update", "kind": kind}
        if u is not None or v is not None:
            doc["edge"] = [u, v]
        if timeout_ms is not None:
            doc["timeout_ms"] = timeout_ms
        # Malformed kinds/edges die here, before a socket is opened.
        protocol.validate_request(doc)
        return self._request_retrying_overload(doc)

    @staticmethod
    def decode_values(encoded: Any) -> List[np.ndarray]:
        return protocol.decode_values(encoded)

    def __repr__(self) -> str:
        state = "connected" if self._sock is not None else "disconnected"
        return f"ServiceClient({self.host}:{self.port}, {state})"
