"""The fleet front end: one router, N ``GraphService`` replicas.

Request lifecycle::

    client line ──> validate (protocol) ──> dispatch on the op's
                    routing policy (``protocol.OPS``)
        by-source (query / temporal)
               ──> consistent-hash owner of the source vertex
                   ──> per-replica circuit breaker ──> forward
                   ──> on replica failure: eject + fail over to the
                   next ring owner, caller's Deadline still honoured
        fan-out (ingest / update)
               ──> serialised fan-out to every replica in rotation
                   ──> one receipt settle: every replica that applied
                   the write must agree on the resulting ``(durable
                   tip, pending overlay depth)``; a diverging or
                   missing receipt quarantines that replica until it
                   is resynced.  An update every replica refuses the
                   same way passes through unchanged
        local (ping / status / shutdown)
               ──> answered by the router itself; ``status`` is fleet
                   health: per-replica state, ring, receipts

Design points:

* **Cache affinity** — queries are routed by consistent hashing on the
  source vertex (:class:`~repro.fleet.hashring.ConsistentHashRing`), so
  repeated and overlapping queries for one source keep hitting the same
  replica's memoizing planner instead of spraying cold caches.
* **Receipt consistency** — the paper's mutation-free snapshot
  representation makes replicas deterministic: the same batch appended
  to the same store tip yields the same absolute version on every
  replica.  The router verifies exactly that on every fan-out; a
  replica whose receipt diverges (or that missed the batch) no longer
  matches the fleet's history and is *quarantined* — out of rotation
  until the supervisor resyncs it from a healthy replica's
  SnapshotStore.
* **Health-driven failover** — a replica that cannot be reached is
  ejected and its hash range implicitly reassigned (the ring simply
  loses its points); the failed query retries on the next ring owner
  under the same deadline.  Per-replica circuit breakers stop the
  router from hammering a dead replica with connection attempts.
* **Sheds pass through, draining does not** — a genuine overload shed
  from a replica is backpressure the caller must see (fleet
  conservation counts it as an answer); a ``draining`` shed means the
  replica is being rolled, so the router reroutes instead of bouncing
  the caller off a shutdown in progress.
* **Lifecycle mirroring** — ``status`` exposes the same
  ``live`` / ``ready`` / ``draining`` vocabulary as a single replica,
  where ``ready`` means "at least one replica in rotation".
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter as TallyCounter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FleetError,
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.fleet.hashring import ConsistentHashRing
from repro.fleet.transport import ReplicaTransport
from repro.obs.clock import Clock
from repro.resilience import CircuitBreaker, Deadline, check_seconds
from repro.service import protocol
from repro.service.lineserver import LineServer, LoopThreadRunner

__all__ = ["FleetRouter", "FleetRunner", "Replica", "RouterConfig"]

#: Replica states as the router tracks them.  ``ready`` is the only
#: in-rotation state; the others say *why* a replica is out and what it
#: takes to come back (probe for ``unhealthy``, supervisor resync for
#: ``quarantined``, supervisor restore for ``draining``).
REPLICA_STATES = ("ready", "unhealthy", "quarantined", "draining")

#: One fan-out leg: ``(replica, response, error, elapsed seconds)``.
Leg = Tuple[str, Optional[Dict[str, Any]], Optional[BaseException], float]


@dataclass
class RouterConfig:
    """Tunables of one fleet router."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick an ephemeral port
    #: Per-request wall-clock budget (``None`` = unbounded); a client
    #: ``timeout_ms`` can only shrink it.  The budget covers *every*
    #: failover attempt of the request, not each one separately.
    request_timeout: Optional[float] = 30.0
    #: Budget for establishing one replica connection.
    connect_timeout: float = 2.0
    #: Virtual points per replica on the hash ring.
    vnodes: int = 64
    #: Consecutive forward failures before a replica's breaker opens.
    breaker_failure_threshold: int = 3
    #: Seconds an open replica breaker waits before admitting a probe.
    breaker_reset_timeout: float = 1.0
    #: Seconds between background health probes (``None`` disables the
    #: probe task; the supervisor or tests call :meth:`probe` directly).
    probe_interval_s: Optional[float] = None
    #: Per-cycle jitter as a fraction of the interval: each probe sleeps
    #: ``interval * (1 + jitter * u)`` with ``u`` uniform in [0, 1), so N
    #: routers started together drift apart instead of
    #: synchronizing probe storms against the same replicas.
    probe_jitter: float = 0.2
    #: Seed for the jitter stream (``None`` = derive from the router's
    #: listening port, which already differs per router).
    probe_jitter_seed: Optional[int] = None
    #: Hard cap on one request line.
    max_line_bytes: int = 1 << 20
    #: Injected time source for the breakers (tests pass ``FakeClock``).
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        check_seconds("request_timeout", self.request_timeout,
                      zero_ok=False, unbounded_ok=True)
        check_seconds("connect_timeout", self.connect_timeout, zero_ok=False)
        check_seconds("breaker_reset_timeout", self.breaker_reset_timeout,
                      zero_ok=True)
        # A zero interval would re-probe every replica back to back.
        check_seconds("probe_interval_s", self.probe_interval_s,
                      zero_ok=False, unbounded_ok=True)


class Replica:
    """The router's view of one replica (event-loop-confined)."""

    def __init__(self, name: str, host: str, port: int, *,
                 connect_timeout: float, max_line_bytes: int,
                 breaker: CircuitBreaker) -> None:
        self.name = name
        self.transport = ReplicaTransport(
            name, host, port, connect_timeout=connect_timeout,
            max_line_bytes=max_line_bytes,
        )
        self.state = "ready"
        self.reason: Optional[str] = None
        self.breaker = breaker
        #: Last ingest receipt version this replica agreed to.
        self.version: Optional[int] = None

    @property
    def in_rotation(self) -> bool:
        return self.state == "ready"

    def set_address(self, host: str, port: int) -> None:
        self.transport = ReplicaTransport(
            self.name, host, port,
            connect_timeout=self.transport.connect_timeout,
            max_line_bytes=self.transport.max_line_bytes,
        )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "address": self.transport.address(),
            "state": self.state,
            "reason": self.reason,
            "version": self.version,
            "breaker": self.breaker.snapshot(),
        }

    def __repr__(self) -> str:
        return (f"Replica({self.name!r}, {self.transport.address()}, "
                f"{self.state})")


class FleetRouter(LineServer):
    """Route reads by source affinity, fan writes to every replica."""

    def __init__(self, replicas: Sequence[Tuple[str, str, int]],
                 config: Optional[RouterConfig] = None) -> None:
        super().__init__(config or RouterConfig())
        if not replicas:
            raise FleetError("a fleet needs at least one replica")
        names = [name for name, _, _ in replicas]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate replica names in {names}")
        self.replicas: Dict[str, Replica] = {
            name: Replica(
                name, host, port,
                connect_timeout=self.config.connect_timeout,
                max_line_bytes=self.config.max_line_bytes,
                breaker=self._make_breaker(f"replica:{name}"),
            )
            for name, host, port in replicas
        }
        self.ring = ConsistentHashRing(names, vnodes=self.config.vnodes)
        #: Absolute version of the last fleet-agreed ingest receipt.
        self.fleet_version: Optional[int] = None
        #: Pending live-tip updates per the last agreed update receipt
        #: (0 after any ingest or compaction — both fold the log).
        self.fleet_overlay_depth: int = 0
        self.counters.update({
            "queries": 0, "temporals": 0, "ingests": 0, "updates": 0,
            "answered": 0, "shed": 0, "errors": 0, "failovers": 0,
            "ejections": 0, "rebalances": 0, "receipt_divergences": 0,
            "probes": 0,
        })
        self._ingest_lock: Optional[asyncio.Lock] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._unregister_collector = lambda: None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        self._ingest_lock = asyncio.Lock()
        await self._listen()
        self._unregister_collector = obs.register_collector(
            self._collect_metrics
        )
        await self._initial_sync()
        interval = self.config.probe_interval_s
        if interval is not None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop(interval)
            )

    async def _initial_sync(self) -> None:
        """Learn the fleet tip: probe every replica's status once.

        The highest reachable tip becomes ``fleet_version``; replicas
        behind it are quarantined as lagging (they need a resync before
        they may serve), unreachable ones are ejected as unhealthy.
        A router that reaches nobody still starts — it serves status
        and answers queries with ``ServiceUnavailableError`` until a
        probe or the supervisor brings replicas back.
        """
        deadline = Deadline.after(self.config.connect_timeout * 2)
        tips: Dict[str, int] = {}
        for name, replica in self.replicas.items():
            try:
                status = await replica.transport.request(
                    {"op": "status"}, deadline
                )
            except (ServiceError, DeadlineExceededError):
                self._eject(name, "unreachable")
                continue
            tips[name] = int(status.get("window_last",
                                        status.get("num_snapshots", 0) - 1))
        if not tips:
            return
        tip = max(tips.values())
        self.fleet_version = tip
        for name, version in tips.items():
            self.replicas[name].version = version
            if version != tip:
                self._quarantine(name, "lagging")

    async def wait_closed(self) -> None:
        await super().wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
        self._unregister_collector()

    async def _health_loop(self, interval: float) -> None:
        seed = self.config.probe_jitter_seed
        rng = random.Random(seed if seed is not None else self.port)
        while True:
            await asyncio.sleep(
                interval * (1.0 + self.config.probe_jitter * rng.random())
            )
            try:
                await self.probe()
            except ReproError:
                # A probe sweep that fails wholesale (e.g. every replica
                # mid-restart) must not kill the health task; the next
                # tick retries and the per-replica state already records
                # what is out.
                continue

    def _lifecycle_payload(self) -> Dict[str, Any]:
        return {
            "live": self._live,
            "ready": self._live and bool(self._rotation()),
            "draining": False,
        }

    def _collect_metrics(self, registry: "obs.MetricsRegistry") -> None:
        """Scrape-time bridge: replica health and breakers → gauges."""
        def gauge(name: str, value: float, **labels: str) -> None:
            obs.instruments.family(registry, name).labels(**labels).set(value)

        for name, replica in self.replicas.items():
            gauge("repro_fleet_replica_up", 1 if replica.in_rotation else 0,
                  replica=name)

    # -- rotation management -------------------------------------------------
    def _rotation(self) -> List[str]:
        return [name for name, replica in self.replicas.items()
                if replica.in_rotation]

    def _replica(self, name: str) -> Replica:
        try:
            return self.replicas[name]
        except KeyError:
            raise FleetError(f"unknown replica {name!r}") from None

    def _leave_rotation(self, name: str, state: str, reason: str) -> None:
        replica = self._replica(name)
        was_in_rotation = replica.in_rotation
        replica.state = state
        replica.reason = reason
        if was_in_rotation:
            self.ring.remove(name)
            self.counters["ejections"] += 1
            self.counters["rebalances"] += 1
            obs.counter_inc("repro_fleet_ejections_total",
                            replica=name, reason=reason)
            obs.counter_inc("repro_fleet_rebalance_total")

    def _eject(self, name: str, reason: str) -> None:
        """Out of rotation; a successful health probe brings it back."""
        self._leave_rotation(name, "unhealthy", reason)

    def _quarantine(self, name: str, reason: str) -> None:
        """Out of rotation; only a supervisor resync brings it back —
        the replica's store no longer matches the fleet's history."""
        self._leave_rotation(name, "quarantined", reason)

    async def eject(self, name: str, reason: str = "operator") -> None:
        self._eject(name, reason)

    async def mark_draining(self, name: str) -> None:
        """Rolling-restart step 1: route nothing new to this replica."""
        self._leave_rotation(name, "draining", "draining")

    async def restore(self, name: str, version: Optional[int] = None,
                      catch_up: Optional[Callable[[], int]] = None
                      ) -> Optional[int]:
        """Bring a replica back into rotation (after probe or resync).

        Holds the ingest lock: the tip comparison is only meaningful
        once no fan-out is in flight — otherwise a replica could rejoin
        while a batch it never saw is mid-air, and the *next* batch
        would quarantine it straight back out.  ``catch_up`` (blocking;
        run on an executor thread) replays what the replica still
        misses and returns its new tip; it runs inside the same lock
        hold, after the fold below, so no write can move the fleet tip
        between the catch-up and the check.  Returns the replica's tip.
        """
        replica = self._replica(name)
        assert self._ingest_lock is not None
        async with self._ingest_lock:
            if self.fleet_overlay_depth and self._rotation():
                # Pending live-tip updates exist only in the in-rotation
                # replicas' overlays — no durable store a resync could
                # have copied them from.  Fold them fleet-wide first, so
                # the returning replica only has to match the durable
                # tip.  The fold advances the fleet tip by one batch,
                # which ``catch_up`` then replays.
                deadline = Deadline.after(self.config.connect_timeout * 2)
                await self._fan_out(
                    "update",
                    self._forward_doc(
                        {"op": "update", "kind": "compact"}, deadline
                    ),
                    deadline,
                )
            if catch_up is not None:
                version = await asyncio.get_running_loop().run_in_executor(
                    None, catch_up)
            if version is not None:
                replica.version = version
            if (self.fleet_version is not None
                    and replica.version is not None
                    and replica.version != self.fleet_version):
                raise FleetError(
                    f"refusing to restore {name}: its tip "
                    f"{replica.version} does not match fleet tip "
                    f"{self.fleet_version}; resync it first"
                )
            if not replica.in_rotation:
                replica.state = "ready"
                replica.reason = None
                self.ring.add(name)
                self.counters["rebalances"] += 1
                obs.counter_inc("repro_fleet_rebalance_total")
            return replica.version

    async def set_address(self, name: str, host: str, port: int) -> None:
        self._replica(name).set_address(host, port)

    async def probe(self) -> Dict[str, str]:
        """One health sweep: try to bring ``unhealthy`` replicas back.

        An unhealthy replica that answers status, reports itself live
        and ready, and sits exactly at the fleet tip re-enters rotation;
        quarantined and draining replicas are left to the supervisor
        (their stores need resync / their drain needs to finish).
        Returns the per-replica verdicts for tests and the CLI.
        """
        self.counters["probes"] += 1
        verdicts: Dict[str, str] = {}
        for name, replica in self.replicas.items():
            if replica.state != "unhealthy":
                verdicts[name] = replica.state
                continue
            deadline = Deadline.after(self.config.connect_timeout)
            try:
                status = await replica.transport.request(
                    {"op": "status"}, deadline
                )
            except (ServiceError, DeadlineExceededError):
                verdicts[name] = "unhealthy"
                continue
            lifecycle = status.get("lifecycle", {})
            tip = int(status.get("window_last",
                                 status.get("num_snapshots", 0) - 1))
            replica.version = tip
            if not (status.get("ok") and lifecycle.get("ready")):
                verdicts[name] = "unhealthy"
            elif self.fleet_version is not None and tip != self.fleet_version:
                self._quarantine(name, "lagging")
                verdicts[name] = "quarantined"
            else:
                try:
                    await self.restore(name, version=tip)
                except FleetError:
                    # The fleet tip moved while we probed: the replica
                    # is now behind after all.  Resync territory.
                    self._quarantine(name, "lagging")
                    verdicts[name] = "quarantined"
                    continue
                replica.breaker.record_success()
                verdicts[name] = "ready"
        return verdicts

    # -- the request path ------------------------------------------------------
    def _error_response(self, exc: BaseException) -> Dict[str, Any]:
        response = self._error_payload(exc)
        if isinstance(exc, ServiceOverloadedError):
            self.counters["shed"] += 1
        else:
            self.counters["errors"] += 1
            obs.counter_inc("repro_errors_total")
        if isinstance(exc, ServiceUnavailableError):
            response["unavailable"] = True
        return response

    async def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """By the op's routing policy: ``_route_<policy>`` (or, for the
        ops the router answers itself, ``_local_<op>``)."""
        op = doc["op"]
        obs.counter_inc("repro_fleet_requests_total", op=op)
        routing = protocol.OPS[op].routing
        if routing == "local":
            return getattr(self, f"_local_{op}")()
        return await getattr(
            self, "_route_" + routing.replace("-", "_")
        )(doc)

    def _forward_doc(self, doc: Dict[str, Any],
                     deadline: Deadline) -> Dict[str, Any]:
        """The request as forwarded: no client id, remaining budget."""
        forward = {key: value for key, value in doc.items() if key != "id"}
        remaining = deadline.remaining()
        if remaining is not None:
            forward["timeout_ms"] = max(1, int(remaining * 1000))
        return forward

    def _local_ping(self) -> Dict[str, Any]:
        return {"ok": True, "op": "ping", "fleet": True}

    def _local_shutdown(self) -> Dict[str, Any]:
        return {"ok": True, "op": "shutdown"}

    def _local_status(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "status",
            "wire_version": protocol.WIRE_VERSION,
            "fleet": {
                "replicas": {
                    name: replica.snapshot()
                    for name, replica in self.replicas.items()
                },
                "rotation": sorted(self._rotation()),
                "fleet_version": self.fleet_version,
                "fleet_overlay_depth": self.fleet_overlay_depth,
                "vnodes": self.config.vnodes,
            },
            "server": dict(self.counters),
            "lifecycle": self._lifecycle_payload(),
            "observability": obs.describe(),
        }

    # -- reads: consistent-hash owner, failover ------------------------------
    async def _route_by_source(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Forward a source-affine read to the ring owner of its source.

        Query and temporal route by the same hash, so a temporal batch
        lands on the replica whose planner cache already holds that
        source's ranges.
        """
        op = doc["op"]
        self.counters["temporals" if op == "temporal" else "queries"] += 1
        source = doc["source"]
        deadline = self._request_deadline(doc)
        tried: Set[str] = set()
        failovers = 0
        last_error: Optional[BaseException] = None
        with obs.phase_span("router", op, label=f"src:{source}"):
            # Each pass recomputes the owner list: an ejection mid-loop
            # reassigns the source's hash range to the survivors.
            for _ in range(len(self.replicas) + 1):
                deadline.check(f"route query for source {source}")
                rotation = self._rotation()
                candidates = [
                    name for name in (
                        self.ring.owners(source, len(rotation))
                        if rotation else []
                    )
                    if name not in tried
                ]
                if not candidates:
                    break
                name = candidates[0]
                replica = self.replicas[name]
                try:
                    replica.breaker.before_call(f"query via {name}")
                except CircuitOpenError as exc:
                    # The breaker remembers this replica failing
                    # recently; skip it without another connection
                    # attempt, but leave it in rotation — the breaker's
                    # own half-open probe decides when to try again.
                    tried.add(name)
                    last_error = exc
                    continue
                try:
                    response = await replica.transport.request(
                        self._forward_doc(doc, deadline), deadline
                    )
                except DeadlineExceededError:
                    # The caller's budget died; that says nothing
                    # definitive about the replica.
                    replica.breaker.record_neutral()
                    raise
                except (ServiceUnavailableError, ProtocolError) as exc:
                    replica.breaker.record_failure()
                    self._eject(name, "unreachable")
                    tried.add(name)
                    failovers += 1
                    last_error = exc
                    self.counters["failovers"] += 1
                    obs.counter_inc("repro_fleet_failover_total")
                    continue
                replica.breaker.record_success()
                if (not response.get("ok") and response.get("overloaded")
                        and response.get("draining")):
                    # The replica is being rolled: reroute instead of
                    # bouncing the caller off a shutdown in progress.
                    self._eject(name, "draining")
                    tried.add(name)
                    failovers += 1
                    self.counters["failovers"] += 1
                    obs.counter_inc("repro_fleet_failover_total")
                    continue
                if not response.get("ok"):
                    if response.get("overloaded"):
                        self.counters["shed"] += 1
                    else:
                        self.counters["errors"] += 1
                else:
                    self.counters["answered"] += 1
                response["replica"] = name
                if failovers:
                    response["failovers"] = failovers
                return response
        raise ServiceUnavailableError(
            f"no replica in rotation could answer the query for source "
            f"{source} (tried {sorted(tried) or 'none'}): {last_error!r}"
        )

    # -- writes: serialised fan-out, one receipt settle -------------------------
    async def _route_fan_out(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        op = doc["op"]
        if op == "ingest":
            # Reject garbage before fan-out (validate_request already
            # parsed an update; it leaves the batch to whoever needs it).
            protocol.parse_ingest_batch(doc)
        deadline = self._request_deadline(doc)
        assert self._ingest_lock is not None
        # Serialised: receipts can only be strictly consecutive, and
        # overlay receipts can only agree, if every replica sees batches
        # and updates in one global order.
        async with self._ingest_lock:
            return await self._fan_out(
                op, self._forward_doc(doc, deadline), deadline
            )

    async def _fan_out(self, op: str, forward: Dict[str, Any],
                       deadline: Deadline) -> Dict[str, Any]:
        """Fan one write to the rotation (ingest lock must be held)."""
        rotation = self._rotation()
        if not rotation:
            raise ServiceUnavailableError(
                f"no replicas in rotation to {op}"
            )
        with obs.phase_span("router", op, replicas=len(rotation)):
            legs = await asyncio.gather(*(
                self._leg(name, forward, deadline) for name in rotation
            ))
        return self._settle(op, rotation, legs)

    async def _leg(self, name: str, forward: Dict[str, Any],
                   deadline: Deadline) -> Leg:
        """One fan-out leg: ``(name, response, error, elapsed)``."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        replica = self.replicas[name]
        try:
            replica.breaker.before_call(f"{forward['op']} via {name}")
        except CircuitOpenError as exc:
            return name, None, exc, loop.time() - started
        try:
            response = await replica.transport.request(forward, deadline)
        except (ServiceError, DeadlineExceededError) as exc:
            replica.breaker.record_failure()
            return name, None, exc, loop.time() - started
        replica.breaker.record_success()
        return name, response, None, loop.time() - started

    def _settle(self, op: str, rotation: List[str],
                legs: List[Leg]) -> Dict[str, Any]:
        """Verify fan-out receipts; quarantine divergent replicas.

        The consistency law: every replica that applied the write must
        report the same stream position — ``(durable tip, pending
        overlay depth)``.  An ingest receipt's ``version`` is the new
        tip and implies depth 0 (every replica folds its overlay before
        appending); it must also be the fleet's next consecutive
        version.  An update receipt carries ``tip_version`` and
        ``overlay_depth``; the overlay ``seq`` is deliberately *not*
        compared — it is monotonic per overlay instance and resets when
        a replica restarts.  Deterministic count-based compaction folds
        at the same stream point everywhere, so a mismatch means a
        replica missed a write (or folded on its own).  Violators leave
        rotation — a replica whose history no longer matches the
        fleet's cannot be allowed to answer queries.
        """
        ingest = op == "ingest"
        receipts: Dict[str, Dict[str, Any]] = {}
        refused: Dict[str, Dict[str, Any]] = {}
        shed: Optional[Dict[str, Any]] = None
        failed: List[str] = []
        for name, response, error, _elapsed in legs:
            if error is not None:
                # Unknown whether the write landed on this replica.
                # Quarantine: only a resync can reconcile it.
                failed.append(name)
            elif response.get("ok"):
                receipts[name] = response
            elif response.get("overloaded"):
                shed = response  # admission refused: write NOT applied
            elif ingest:
                # A failed append may or may not have reached the store.
                failed.append(name)
            else:
                # The overlay validates before it mutates: a refused
                # update (insert of a present edge, live tip disabled)
                # left the replica untouched.
                refused[name] = response
        if not receipts:
            if not failed:
                # Nothing was applied anywhere — the fleet is still
                # consistent.  A refusal every replica agrees on passes
                # through; so does unanimous backpressure.
                self.counters["errors" if refused else "shed"] += 1
                answer = next(iter(refused.values())) if refused else shed
                assert answer is not None
                return dict(answer)
            for name in failed:
                self._quarantine(name, f"{op}_failed")
            raise FleetError(
                f"{op} reached no replica (failed: {sorted(failed)}); "
                "fleet needs supervisor attention"
            )
        # At least one replica applied the write: anyone who didn't is
        # now behind the fleet history.
        for name in rotation:
            if name not in receipts:
                self._quarantine(
                    name,
                    f"{op}_failed" if name in failed else f"missed_{op}",
                )
        keys = {
            name: (receipt.get("tip_version", receipt.get("version")),
                   receipt.get("overlay_depth") or 0)
            for name, receipt in receipts.items()
        }
        tally = TallyCounter(keys.values())
        agreed = tally.most_common(1)[0][0]
        if ingest and self.fleet_version is not None:
            expected = (self.fleet_version + 1, 0)
            if expected in tally:
                agreed = expected
        for name, key in keys.items():
            if key != agreed:
                self.counters["receipt_divergences"] += 1
                self._quarantine(name, "divergence")
                del receipts[name]
        tip, depth = agreed
        if tip is not None:
            self.fleet_version = int(tip)
            for name in receipts:
                self.replicas[name].version = int(tip)
        self.fleet_overlay_depth = int(depth)
        elapsed = [leg_elapsed for name, _, _, leg_elapsed in legs
                   if name in receipts]
        if ingest and len(elapsed) > 1:
            obs.observe("repro_fleet_fanout_lag_seconds",
                        max(elapsed) - min(elapsed))
        self.counters[f"{op}s"] += 1
        self.counters["answered"] += 1
        reference = next(receipts[name] for name in rotation
                         if name in receipts)
        response = dict(reference)
        response.update({
            "ok": True,
            "op": op,
            "replicas": len(receipts),
            "fleet_version": self.fleet_version,
        })
        return response


class FleetRunner(LoopThreadRunner):
    """Run a :class:`FleetRouter` on a background thread.

    A :class:`~repro.service.lineserver.LoopThreadRunner` plus
    thread-safe control methods (:meth:`eject`, :meth:`restore`,
    :meth:`mark_draining`, :meth:`set_address`, :meth:`probe`) that the
    supervisor and tests use to drive rotation changes — each one runs
    the corresponding coroutine on the router's own event loop, which
    is what keeps the router free of locks.
    """

    thread_name = "repro-fleet-router"
    what = "fleet router"

    def __init__(self, router: FleetRouter) -> None:
        super().__init__()
        self.router = router

    def _make_server(self) -> FleetRouter:
        return self.router

    def eject(self, name: str, reason: str = "operator") -> None:
        self.call(lambda: self.router.eject(name, reason))

    def mark_draining(self, name: str) -> None:
        self.call(lambda: self.router.mark_draining(name))

    def restore(self, name: str, version: Optional[int] = None,
                catch_up: Optional[Callable[[], int]] = None
                ) -> Optional[int]:
        return self.call(lambda: self.router.restore(
            name, version=version, catch_up=catch_up))

    def set_address(self, name: str, host: str, port: int) -> None:
        self.call(lambda: self.router.set_address(name, host, port))

    def probe(self) -> Dict[str, str]:
        return self.call(self.router.probe)
