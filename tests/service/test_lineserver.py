"""Teardown of the shared JSON-lines front end (:class:`LineServer`)."""

from __future__ import annotations

import asyncio
import contextlib
import socket
from types import SimpleNamespace

import pytest

from repro.service.lineserver import LineServer


class _Echo(LineServer):
    async def start(self) -> None:
        await self._listen()

    async def _dispatch(self, doc):
        return {"ok": True}


@pytest.mark.service
@pytest.mark.parametrize("step", ["_accept_connection2", "_handle_connection"])
def test_stop_ends_a_connection_accepted_in_the_last_turns(step):
    """asyncio accepts a connection, then wraps it in a transport
    (``_accept_connection2``) and runs its handler, each in a task of
    its own.  A task the loop's teardown cancels unstarted never closes
    the socket, so the peer would wait out its whole request budget.
    Hold ``step`` unstarted across a stop: the stop must finish and the
    peer must read EOF."""
    held = []

    async def scenario(client):
        loop = asyncio.get_running_loop()
        reached = loop.create_future()

        async def never_started():
            with contextlib.suppress(asyncio.CancelledError):
                await loop.create_future()  # cancelled at teardown

        def tasks(loop, coro, **kwargs):
            if getattr(coro, "__name__", "") == step:
                held.append(coro)
                reached.set_result(None)
                coro = never_started()
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(tasks)
        server = _Echo(SimpleNamespace(host="127.0.0.1", port=0,
                                       max_line_bytes=1 << 16))
        await server.start()
        client.connect(("127.0.0.1", server.port))
        await asyncio.wait_for(reached, timeout=10)
        server.request_stop()
        # Since 3.12 asyncio's own wait_closed waits for every transport,
        # so a transport nobody closes would hang the stop itself.
        await asyncio.wait_for(server.wait_closed(), timeout=10)

    with socket.socket() as client:
        try:
            asyncio.run(scenario(client))
            # The held step still references the accepted socket.
            client.settimeout(10)
            assert client.recv(1) == b""
        finally:
            for coro in held:
                coro.close()  # never started: its body does not run
