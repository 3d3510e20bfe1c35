"""Golden transcript of the request path: request doc -> response doc.

A seeded characterisation of everything a client can observe on the
wire — every op and every outcome (ok, client refusal, faulted read,
shed, retried and breaker-open ingest, coalesced follower, oversize line),
once direct to a replica and once through a 3-replica router (plus a
draining reroute and a diverging-receipt quarantine).  The transcript
was captured at the commit *before* the request path was collapsed
into one op table / one gated hop / one read walk / one settle, and
``test_golden_transcript.py`` replays it against the current code: a
refactor of that path must leave every byte a client sees unchanged.
It has been regenerated once since, for wire version 2 (query ``values``
became base + sparse changes): the 31 entries carrying ``values`` were
re-spelled — each decodes ``array_equal`` to its old payload — and the
other 85 entries, like every field outside ``values``, stayed
byte-identical.  And once more when the default schedule became range
halving walked in sweeps (a different tree visits different nodes): 3
entries changed, in ``node_hits`` / ``node_misses`` only — the script
prints the fields a regeneration moves.  And once more when the node
cache began holding answered snapshots instead of walk nodes (the two
fields now count snapshots served from the cache and computed): 21
entries changed, in ``node_hits`` / ``node_misses`` only.  And once more
when reads lost their retry, planner breaker and degraded offline lane
(a read is a pure function of its view): the read fault exchanges were
replaced by one faulted query and one faulted temporal per scenario,
replies lost their ``outcome`` member, and status digests their
``planner`` breaker and ``breaker_fastfail`` counter.

Determinism: server, replicas, router and the driving client all share
*one* event loop, so arrival order is the order the scenario awaits
in; concurrency (a leader holding an admission slot while a follower
coalesces behind it) is staged with a thread gate inside the executor,
never with sleeps; breakers run on a :class:`FakeClock`; faults come
from counter-based :class:`FaultPlan` rules; retries back off by 0 s.

Regenerate (only when the wire contract changes on purpose)::

    PYTHONPATH=src python -m tests.service.golden
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.faults import FaultPlan
from repro.fleet.router import FleetRouter, RouterConfig
from repro.graph.generators import rmat_edges
from repro.graph.weights import HashWeights
from repro.obs.clock import FakeClock
from repro.resilience import RetryPolicy
from repro.service import ServiceState, protocol
from repro.service.admission import AdmissionPolicy
from repro.service.server import GraphService, ServiceConfig

from tests.fleet.conftest import pairs as _pairs
from tests.service.conftest import valid_batch

GOLDEN_PATH = Path(__file__).with_name("golden_transcript.json")

#: Response fields that differ run to run by construction.
_VOLATILE = ("id", "trace_id")
_REPLICAS = ("replica-0", "replica-1", "replica-2")
_SPECS = [
    {"mode": "timeline", "vertex": 3},
    {"mode": "point", "as_of": 1},
    {"mode": "diff", "a": 0, "b": 2},
    {"mode": "aggregate", "agg": "max", "first": 1, "last": 2},
]


def golden_evolving():
    return generate_evolving_graph(
        num_vertices=32,
        base=rmat_edges(scale=5, num_edges=100, seed=5),
        num_snapshots=4,
        batch_size=8,
        readd_fraction=0.5,
        seed=11,
        name="golden",
    )


def _wire_batch(store: SnapshotStore) -> Dict[str, Any]:
    """An ingest request valid against the store's current tip."""
    batch = valid_batch(store, n_add=2, n_del=1)
    return {"op": "ingest", "additions": _pairs(batch.additions),
            "deletions": _pairs(batch.deletions)}


def _tip_edges(store: SnapshotStore) -> Tuple[List[int], List[int]]:
    """``(a present edge, an absent edge)`` of the store's tip."""
    evolving = store.load()
    tip = evolving.snapshot_edges(evolving.num_snapshots - 1)
    present = _pairs(tip)
    taken = {tuple(pair) for pair in present}
    absent = next([u, v] for u in range(store.num_vertices)
                  for v in range(store.num_vertices - 1, -1, -1)
                  if u != v and (u, v) not in taken)
    return present[0], absent


def service_config(**overrides: Any) -> ServiceConfig:
    settings: Dict[str, Any] = dict(
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                          retry_on=(OSError,)),
        clock=FakeClock(),
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _status_digest(response: Dict[str, Any]) -> Dict[str, Any]:
    """The stable part of a status payload (no paths, sizes or timings)."""
    digest: Dict[str, Any] = {
        key: response[key]
        for key in ("ok", "op", "epoch", "ingests", "resyncs", "serving",
                    "poisoned", "window_first", "window_last", "lifecycle",
                    "server")
        if key in response
    }
    if "breakers" in response:
        digest["breakers"] = {name: snap["state"] for name, snap
                              in response["breakers"].items()}
    if "admission" in response:
        digest["admission_totals"] = response["admission"]["totals"]
    if "livetip" in response:
        digest["livetip"] = {
            key: response["livetip"].get(key)
            for key in ("enabled", "overlay_depth", "updates_total",
                        "compactions", "updates_folded")
        }
    if "fleet" in response:
        fleet = response["fleet"]
        digest["fleet"] = {
            "rotation": fleet["rotation"],
            "fleet_version": fleet["fleet_version"],
            "fleet_overlay_depth": fleet["fleet_overlay_depth"],
            "replicas": {
                name: {key: snap[key]
                       for key in ("state", "reason", "version")}
                for name, snap in fleet["replicas"].items()
            },
        }
    return digest


def _normalise(response: Dict[str, Any]) -> Dict[str, Any]:
    if response.get("op") == "status" and response.get("ok"):
        return _status_digest(response)
    return {key: value for key, value in response.items()
            if key not in _VOLATILE}


class Gate:
    """Hold the first ``ServiceState.query`` call inside its executor
    thread until released — how a scenario keeps a leader in flight."""

    def __init__(self, state: ServiceState) -> None:
        self.entered = threading.Event()
        self._release = threading.Event()
        self._state = state
        inner = state.query

        def gated(*args: Any, **kwargs: Any) -> Any:
            if not self.entered.is_set():
                self.entered.set()
                if not self._release.wait(timeout=20):
                    raise AssertionError("gate was never released")
            return inner(*args, **kwargs)

        state.query = gated  # type: ignore[method-assign]

    async def wait_entered(self) -> None:
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, 20)

    def release(self) -> None:
        self._release.set()
        del self._state.query  # back to the class's method


async def spin_until(condition: Callable[[], bool]) -> None:
    """Yield to the loop until ``condition()`` — no wall-clock wait."""
    for _ in range(1_000_000):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never became true")


class Recorder:
    """Sends requests, keeps the normalised transcript of one scenario."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []

    async def ask(self, port: int, request: Any) -> Dict[str, Any]:
        """One request on a fresh connection; records and returns it."""
        entry: Dict[str, Any] = {}
        self.entries.append(entry)  # recorded in *send* order
        return await self._exchange(port, request, entry)

    def start(self, port: int, request: Any) -> "asyncio.Task[Any]":
        """Like :meth:`ask`, but in flight: await the task later."""
        entry: Dict[str, Any] = {}
        self.entries.append(entry)
        return asyncio.get_running_loop().create_task(
            self._exchange(port, request, entry)
        )

    async def _exchange(self, port: int, request: Any,
                        entry: Dict[str, Any]) -> Dict[str, Any]:
        if isinstance(request, bytes):
            line = request
            entry["request"] = (
                {"raw": request.decode("utf-8")} if len(request) < 200
                else {"raw_bytes": len(request)}
            )
        else:
            line = protocol.encode_line(request).rstrip(b"\n")
            entry["request"] = request
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22,
        )
        try:
            writer.write(line + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            if "raw_bytes" in entry["request"]:
                # An oversize line also costs the client its connection.
                entry["closed"] = (await reader.readline()) == b""
        finally:
            writer.close()
        entry["response"] = _normalise(response)
        return response


class Replica:
    """One ``GraphService`` over its own store, on the running loop."""

    def __init__(self, root: Path, name: str, evolving: Any,
                 config: ServiceConfig, **state_options: Any) -> None:
        self.store = SnapshotStore.create(root / name, evolving)
        self.state = ServiceState(
            self.store, weight_fn=HashWeights(max_weight=8, seed=7),
            **state_options,
        )
        self.service = GraphService(self.state, config)

    async def start(self) -> int:
        await self.service.start()
        assert self.service.port is not None
        return self.service.port

    async def stop(self) -> None:
        self.service.request_stop()
        await self.service.wait_closed()
        self.state.close()


# -- scenarios: direct to one replica ----------------------------------------

async def _direct_ops(root: Path, evolving: Any) -> List[Dict[str, Any]]:
    """Every op answering ok, then every client refusal."""
    rec = Recorder()
    replica = Replica(root, "ops", evolving, service_config())
    port = await replica.start()
    present, absent = _tip_edges(replica.store)
    query = {"op": "query", "algorithm": "SSSP", "source": 0}
    try:
        await rec.ask(port, {"op": "ping", "id": "p-1"})
        await rec.ask(port, query)
        await rec.ask(port, query)  # result-cache hit
        await rec.ask(port, {**query, "algorithm": "BFS", "source": 2,
                             "first": 1, "last": 2, "timeout_ms": 30000})
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0, "queries": _SPECS})
        await rec.ask(port, {"op": "update", "kind": "insert",
                             "edge": absent})
        await rec.ask(port, {**query, "first": 3, "last": 3})  # patched tip
        await rec.ask(port, {"op": "update", "kind": "delete",
                             "edge": present})
        await rec.ask(port, {"op": "temporal", "algorithm": "BFS",
                             "source": 0,
                             "queries": [{"mode": "point", "as_of": 3}]})
        await rec.ask(port, {"op": "update", "kind": "compact"})
        await rec.ask(port, _wire_batch(replica.store))
        await rec.ask(port, query)  # new epoch, slid versions
        await rec.ask(port, {"op": "status"})
        # -- client refusals: none may change state or trip a breaker --
        await rec.ask(port, {**query, "first": 0, "last": 99})
        await rec.ask(port, {**query, "first": 3, "last": 1})
        await rec.ask(port, {**query, "first": -1})
        await rec.ask(port, {**query, "source": 32})
        await rec.ask(port, {**query, "algorithm": "PageRank"})
        await rec.ask(port, {**query, "colour": "red"})
        await rec.ask(port, {**query, "timeout_ms": 0})
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0, "queries": _SPECS, "extra": 1})
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0,
                             "queries": [{"mode": "sideways"}]})
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0,
                             "queries": [{"mode": "point", "as_of": 99}]})
        await rec.ask(port, {"op": "ingest", "additions": [],
                             "deletions": []})
        await rec.ask(port, {"op": "ingest", "additions": [[0, 1]],
                             "batch": 7})
        await rec.ask(port, {"op": "ingest", "additions": [[0, "x"]]})
        present, absent = _tip_edges(replica.store)
        await rec.ask(port, {"op": "ingest", "additions": [present]})
        await rec.ask(port, {"op": "update", "kind": "insert",
                             "edge": present})
        await rec.ask(port, {"op": "update", "kind": "delete",
                             "edge": absent})
        await rec.ask(port, {"op": "update", "kind": "upsert",
                             "edge": absent})
        await rec.ask(port, {"op": "update", "kind": "compact",
                             "edge": absent})
        await rec.ask(port, {"op": "update", "kind": "insert",
                             "edge": absent, "when": "now"})
        await rec.ask(port, {"op": "snapshot"})
        await rec.ask(port, b"{not json")
        await rec.ask(port, b"[1, 2, 3]")
        await rec.ask(port, {"op": "status"})
        await rec.ask(port, {"op": "shutdown"})
    finally:
        await replica.stop()
    return rec.entries


async def _direct_faults(root: Path, evolving: Any) -> List[Dict[str, Any]]:
    """A faulted query and temporal, then the write lanes: a retried,
    an exhausted (breaker-tripping), a fast-failed and a healed ingest,
    and a never-retried update."""
    rec = Recorder()
    clock = FakeClock()
    replica = Replica(root, "faults", evolving, service_config(
        clock=clock, breaker_failure_threshold=1, breaker_reset_timeout=5.0,
    ))
    port = await replica.start()
    query = {"op": "query", "algorithm": "SSSP", "source": 1}
    temporal = {"op": "temporal", "algorithm": "SSSP", "source": 1,
                "queries": _SPECS[:2]}
    _, absent = _tip_edges(replica.store)
    try:
        # -- reads: a fault is the read's error reply, never retried --
        with FaultPlan().fail_service(match="query:*").active():
            await rec.ask(port, query)
        with FaultPlan().fail_service(match="temporal:*").active():
            await rec.ask(port, temporal)
        await rec.ask(port, {**query, "algorithm": "PageRank"})
        await rec.ask(port, {"op": "status"})
        # -- ingest: retried, exhausted (trips), fast-fail, healed --
        batch = _wire_batch(replica.store)
        with FaultPlan().fail_service(match="ingest:*", times=1).active():
            await rec.ask(port, batch)
        batch = _wire_batch(replica.store)
        with FaultPlan().fail_service(match="ingest:*", times=3).active():
            await rec.ask(port, batch)
        await rec.ask(port, batch)  # store breaker open
        clock.advance(5.0)
        await rec.ask(port, batch)  # probe heals
        # -- update: a failed update is never retried --
        plan = FaultPlan().fail_service(match="update:*", times=1)
        with plan.active():
            await rec.ask(port, {"op": "update", "kind": "insert",
                                 "edge": absent})
            await rec.ask(port, {"op": "update", "kind": "insert",
                                 "edge": absent})
        rec.entries.append({"update_attempts": sum(
            event.startswith("update:") for event in plan.events)})
        await rec.ask(port, {"op": "status"})
    finally:
        await replica.stop()
    return rec.entries


async def _direct_overload(root: Path, evolving: Any) -> List[Dict[str, Any]]:
    """Coalesced follower, shed, expired budget, draining, oversize line."""
    rec = Recorder()
    replica = Replica(root, "overload", evolving, service_config(
        query_admission=AdmissionPolicy(max_concurrent=1, max_queue=0,
                                        queue_timeout=4.0),
        max_line_bytes=4096,
    ))
    service = replica.service
    port = await replica.start()
    query = {"op": "query", "algorithm": "SSSP", "source": 4}
    try:
        gate = Gate(replica.state)
        leader = rec.start(port, query)
        await gate.wait_entered()
        follower = rec.start(port, query)
        await spin_until(lambda: service.counters["coalesced"] == 1)
        await rec.ask(port, {**query, "source": 5})  # shed: queue_full
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 5, "queries": _SPECS[:1]})  # shed too
        gate.release()
        await leader
        await follower
        # An expired budget: the leader's own deadline dies in the hop.
        gate = Gate(replica.state)
        await rec.ask(port, {**query, "source": 6, "timeout_ms": 30})
        gate.release()
        await spin_until(
            lambda: service.admission.snapshot()["query"]["active"] == 0)
        await rec.ask(port, b"x" * 10000)  # oversize line
        await rec.ask(port, {"op": "status"})
        # Draining: a request on a connection opened before the drain.
        gate = Gate(replica.state)
        held = rec.start(port, {**query, "source": 7})
        await gate.wait_entered()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        drain = asyncio.get_running_loop().create_task(service.drain(30.0))
        await spin_until(lambda: service.admission.draining)
        writer.write(protocol.encode_line({**query, "source": 8}))
        await writer.drain()
        shed = json.loads(await reader.readline())
        writer.close()
        rec.entries.append({"request": {**query, "source": 8},
                            "response": _normalise(shed)})
        gate.release()
        await held
        rec.entries.append({"drain_report": await drain})
    finally:
        await replica.stop()
    return rec.entries


# -- scenarios: through a 3-replica router -------------------------------------

class Fleet:
    """Three replicas and their router, all on the running loop."""

    def __init__(self, root: Path, evolving: Any,
                 config_for: Callable[[], ServiceConfig],
                 **router_options: Any) -> None:
        self.replicas: Dict[str, Replica] = {
            name: Replica(root, name, evolving, config_for())
            for name in _REPLICAS
        }
        self.router: Optional[FleetRouter] = None
        self.clock = FakeClock()
        self.router_options = router_options

    async def start(self) -> int:
        members = [(name, "127.0.0.1", await replica.start())
                   for name, replica in self.replicas.items()]
        self.router = FleetRouter(members, RouterConfig(
            clock=self.clock, breaker_failure_threshold=1,
            **self.router_options,
        ))
        await self.router.start()
        assert self.router.port is not None
        return self.router.port

    async def stop(self) -> None:
        if self.router is not None:
            self.router.request_stop()
            await self.router.wait_closed()
        for replica in self.replicas.values():
            await replica.stop()


async def _routed_ops(root: Path, evolving: Any) -> List[Dict[str, Any]]:
    """Every op and every client refusal, through the router."""
    rec = Recorder()
    fleet = Fleet(root, evolving, service_config, max_line_bytes=1 << 16)
    port = await fleet.start()
    store = fleet.replicas["replica-0"].store
    present, absent = _tip_edges(store)
    query = {"op": "query", "algorithm": "SSSP", "source": 0}
    try:
        await rec.ask(port, {"op": "ping", "id": 7})
        for source in range(4):
            await rec.ask(port, {**query, "source": source})
        await rec.ask(port, query)  # affinity: same replica, cache hit
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0, "queries": _SPECS})
        await rec.ask(port, {"op": "update", "kind": "insert",
                             "edge": absent})
        await rec.ask(port, {**query, "first": 3, "last": 3})
        await rec.ask(port, {"op": "update", "kind": "delete",
                             "edge": present})
        await rec.ask(port, {"op": "update", "kind": "compact"})
        await rec.ask(port, _wire_batch(store))
        await rec.ask(port, query)
        await rec.ask(port, {"op": "status"})
        # -- client refusals --
        await rec.ask(port, {**query, "first": 0, "last": 99})
        await rec.ask(port, {**query, "first": 3, "last": 1})
        await rec.ask(port, {**query, "source": 32})
        await rec.ask(port, {**query, "algorithm": "PageRank"})
        await rec.ask(port, {**query, "colour": "red"})
        await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                             "source": 0,
                             "queries": [{"mode": "point", "as_of": 99}]})
        await rec.ask(port, {"op": "ingest", "additions": [],
                             "deletions": []})
        present, absent = _tip_edges(store)
        await rec.ask(port, {"op": "update", "kind": "insert",
                             "edge": present})  # unanimous refusal
        await rec.ask(port, {"op": "update", "kind": "upsert",
                             "edge": absent})
        await rec.ask(port, {"op": "snapshot"})
        await rec.ask(port, b"{not json")
        await rec.ask(port, b"x" * ((1 << 16) + 8))  # oversize line
        await rec.ask(port, {"op": "status"})
        # A batch every replica refuses counts as "reached no replica".
        await rec.ask(port, {"op": "ingest", "additions": [present]})
        await rec.ask(port, {"op": "status"})
        await rec.ask(port, {"op": "shutdown"})
    finally:
        await fleet.stop()
    return rec.entries


async def _routed_faults(root: Path, evolving: Any) -> List[Dict[str, Any]]:
    """Replica-side outcomes pass through; router-side failover, draining
    reroute and diverging-receipt quarantine."""
    rec = Recorder()
    fleet = Fleet(root, evolving, lambda: service_config(
        breaker_failure_threshold=1,
        query_admission=AdmissionPolicy(max_concurrent=1, max_queue=0,
                                        queue_timeout=4.0),
    ))
    port = await fleet.start()
    router = fleet.router
    assert router is not None
    query = {"op": "query", "algorithm": "SSSP", "source": 0}
    try:
        owner = (await rec.ask(port, query))["replica"]
        # The owner's fault reply passes through: no failover.
        with FaultPlan().fail_service(match="query:*").active():
            await rec.ask(port, {**query, "first": 1, "last": 2})
        with FaultPlan().fail_service(match="temporal:*").active():
            await rec.ask(port, {"op": "temporal", "algorithm": "SSSP",
                                 "source": 0, "queries": _SPECS[:2]})
        # Coalesced follower and a shed, both answered by the owner.
        gate = Gate(fleet.replicas[owner].state)
        service = fleet.replicas[owner].service
        leader = rec.start(port, {**query, "first": 1, "last": 3})
        await gate.wait_entered()
        follower = rec.start(port, {**query, "first": 1, "last": 3})
        await spin_until(lambda: service.counters["coalesced"] == 1)
        await rec.ask(port, {**query, "first": 0, "last": 0})  # shed
        gate.release()
        await leader
        await follower
        # Draining reroute: the owner answers "overloaded, draining" (a
        # replica being rolled), so the router moves on to the next owner.
        real_port = fleet.replicas[owner].service.port
        assert real_port is not None

        async def rolled(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            await reader.readline()
            writer.write(protocol.encode_line({
                "ok": False, "error": "query admission shed (draining)",
                "error_type": "ServiceOverloadedError", "overloaded": True,
                "retry_after_ms": 0, "draining": True,
            }))
            await writer.drain()
            writer.close()

        stub = await asyncio.start_server(rolled, "127.0.0.1", 0)
        await router.set_address(owner, "127.0.0.1",
                                 stub.sockets[0].getsockname()[1])
        await rec.ask(port, query)
        await rec.ask(port, {"op": "status"})
        stub.close()
        await stub.wait_closed()
        await router.set_address(owner, "127.0.0.1", real_port)
        rec.entries.append({"probe": await router.probe()})
        # Planned drain (rolling restart step 1): nothing new routes there.
        await router.mark_draining(owner)
        await rec.ask(port, query)
        await router.restore(owner)
        # Partition: the wire eats the forward; failover + ejection.
        with FaultPlan().fail_service(match=f"route:{owner}:query",
                                      times=1).active():
            await rec.ask(port, query)
        rec.entries.append({"probe": await router.probe()})
        # Back in rotation, but the router's breaker for it is still open:
        # skipped without a connection attempt until the probe window.
        await rec.ask(port, {**query, "first": 0, "last": 2})
        fleet.clock.advance(1.0)
        await rec.ask(port, {**query, "first": 0, "last": 2})
        # Diverging receipt: one replica ingested behind the fleet's back.
        rogue = fleet.replicas["replica-2"]
        _, absent = _tip_edges(rogue.store)
        await rec.ask(rogue.service.port, {"op": "ingest",
                                           "additions": [absent]})
        await rec.ask(port, _wire_batch(fleet.replicas["replica-0"].store))
        await rec.ask(port, {"op": "status"})
        rec.entries.append({"probe": await router.probe()})
        # A missed update quarantines too.
        _, absent = _tip_edges(fleet.replicas["replica-0"].store)
        with FaultPlan().fail_service(match="route:replica-1:update",
                                      times=1).active():
            await rec.ask(port, {"op": "update", "kind": "insert",
                                 "edge": absent})
        await rec.ask(port, {"op": "status"})
    finally:
        await fleet.stop()
    return rec.entries


_SCENARIOS = {
    "direct_ops": _direct_ops,
    "direct_faults": _direct_faults,
    "direct_overload": _direct_overload,
    "routed_ops": _routed_ops,
    "routed_faults": _routed_faults,
}


async def _record() -> Dict[str, List[Dict[str, Any]]]:
    evolving = golden_evolving()
    transcript: Dict[str, List[Dict[str, Any]]] = {}
    for name, scenario in _SCENARIOS.items():
        with tempfile.TemporaryDirectory(prefix="repro-golden-") as root:
            transcript[name] = await scenario(Path(root), evolving)
    return transcript


def record() -> Dict[str, List[Dict[str, Any]]]:
    """Run every scenario; returns ``scenario -> [entry, ...]``.

    Round-tripped through JSON so it compares equal to the loaded file.
    """
    return json.loads(json.dumps(asyncio.run(_record())))


def _changed_fields(old: Any, new: Any, field: str = "") -> set:
    """Names of the fields under which ``old`` and ``new`` differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return set().union(*(
            _changed_fields(old.get(key), new.get(key), key)
            for key in old.keys() | new.keys()))
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return set().union(*(
            _changed_fields(a, b, field) for a, b in zip(old, new)))
    return set() if old == new else {field}


def main() -> None:
    lines = ["{"]
    transcript = record()
    if GOLDEN_PATH.exists():
        # What the regeneration changes, so a reviewer sees at a glance
        # that (say) no ``values`` / ``base`` / ``changes`` field moved.
        held = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        pairs = [(a, b) for name in transcript
                 for a, b in zip(held.get(name, []), transcript[name])]
        changed = [_changed_fields(a, b) for a, b in pairs]
        print(f"entries compared {len(pairs)} / changed "
              f"{sum(map(bool, changed))}; fields that differ: "
              f"{sorted(set().union(*changed))}")
    for index, (name, entries) in enumerate(transcript.items()):
        lines.append(f" {json.dumps(name)}: [")
        lines.extend(
            "  " + json.dumps(entry, sort_keys=True, separators=(",", ":"))
            + ("," if i + 1 < len(entries) else "")
            for i, entry in enumerate(entries)
        )
        lines.append(" ]" + ("," if index + 1 < len(transcript) else ""))
    lines.append("}")
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} "
          f"({sum(map(len, transcript.values()))} entries)")


if __name__ == "__main__":
    main()
