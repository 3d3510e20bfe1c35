"""Fleet lifecycle: bring up replicas, roll them, resync laggards.

The :class:`FleetSupervisor` owns what the router deliberately does
not: *processes and stores*.  The router only observes replicas over
TCP and votes them in or out of rotation; the supervisor creates the
replica stores (each replica gets its own copy of the base
SnapshotStore — fan-out and receipt consistency are only meaningful
when the replicas really are independent), starts each replica's
:class:`~repro.service.server.ServiceRunner`, and drives the two
recovery workflows the fleet needs:

* **Rolling restart** — one replica at a time: mark it draining at the
  router (no new work routes to it), run PR 5's graceful drain (its
  in-flight requests finish), restart it over the same store
  directory, resync it if ingests advanced the fleet meanwhile, and
  only then restore it to rotation.  Queries keep flowing to the other
  replicas throughout.
* **Resync** — a restarted or quarantined replica catches up from a
  healthy donor's SnapshotStore: the missing batches are read straight
  from the donor's store directory and replayed through the lagging
  replica's own ingest lane, so the catch-up path exercises exactly
  the code the live path does.  A replica whose history *diverged*
  (it is ahead of the fleet, or its batches disagree) cannot be
  replayed into agreement; :meth:`resync` refuses and the operator
  rebuilds it with :meth:`rebuild_replica` — a fresh store copied from
  the donor.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import FleetError, ResyncStalledError
from repro.evolving.store import SnapshotStore
from repro.fleet.router import FleetRouter, FleetRunner, RouterConfig
from repro.graph.edgeset import decode_edges
from repro.resilience import Deadline
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceRunner
from repro.service.state import ServiceState, WeightFn

__all__ = ["FleetSupervisor", "ManagedReplica"]


def _batch_pairs(edges) -> List[List[int]]:
    """An EdgeSet as the wire-format ``[[u, v], ...]`` pair list."""
    sources, targets = decode_edges(edges.codes)
    return [[int(u), int(v)] for u, v in zip(sources.tolist(),
                                             targets.tolist())]


class ManagedReplica:
    """One replica the supervisor owns: a store directory + a runner."""

    def __init__(self, name: str, store_dir: Path) -> None:
        self.name = name
        self.store_dir = store_dir
        self.runner: Optional[ServiceRunner] = None

    @property
    def port(self) -> Optional[int]:
        return None if self.runner is None else self.runner.port

    @property
    def running(self) -> bool:
        return self.runner is not None

    def __repr__(self) -> str:
        return (f"ManagedReplica({self.name!r}, port={self.port}, "
                f"store={self.store_dir})")


class FleetSupervisor:
    """Own N replicas and their router; drive restarts and resyncs."""

    def __init__(
        self,
        base_store: Union[str, Path],
        root: Union[str, Path],
        *,
        replicas: int = 3,
        weight_fn: Optional[WeightFn] = None,
        window: Optional[int] = None,
        service_config: Optional[Callable[[str], ServiceConfig]] = None,
        router_config: Optional[RouterConfig] = None,
        host: str = "127.0.0.1",
        resync_deadline_s: Optional[float] = 30.0,
    ) -> None:
        if replicas < 1:
            raise FleetError("a fleet needs at least one replica")
        self.base_store = Path(base_store)
        self.root = Path(root)
        self.host = host
        self.weight_fn = weight_fn
        self.window = window
        #: Resync budget: a resync may replay batches for at most this
        #: many seconds before :class:`ResyncStalledError`.
        self.resync_deadline_s = resync_deadline_s
        #: Per-replica config factory (replicas may want distinct admission
        #: bounds in tests); defaults to a fresh default config each.
        self._service_config = service_config or (lambda name: ServiceConfig())
        self._router_config = router_config
        self.replicas: Dict[str, ManagedReplica] = {}
        for index in range(replicas):
            name = f"replica-{index}"
            store_dir = self.root / name / "store"
            store_dir.parent.mkdir(parents=True, exist_ok=True)
            shutil.copytree(self.base_store, store_dir)
            self.replicas[name] = ManagedReplica(name, store_dir)
        self.router_runner: Optional[FleetRunner] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Start every replica, then the router over them."""
        for replica in self.replicas.values():
            self._start_replica(replica)
        router = FleetRouter(
            [(name, self.host, replica.port)
             for name, replica in self.replicas.items()],
            self._router_config,
        )
        self.router_runner = FleetRunner(router).start()
        return self

    def stop(self) -> None:
        """Tear the whole fleet down (router first, then replicas)."""
        if self.router_runner is not None:
            self.router_runner.stop()
            self.router_runner = None
        for replica in self.replicas.values():
            self._stop_replica(replica)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def router_port(self) -> int:
        if self.router_runner is None or self.router_runner.port is None:
            raise FleetError("the fleet router is not running")
        return self.router_runner.port

    def client(self, **kwargs: Any) -> ServiceClient:
        """A client speaking to the fleet router."""
        return ServiceClient(self.host, self.router_port, **kwargs)

    def replica_client(self, name: str, **kwargs: Any) -> ServiceClient:
        """A client speaking directly to one replica (tests, resync)."""
        replica = self._replica(name)
        if replica.port is None:
            raise FleetError(f"replica {name!r} is not running")
        return ServiceClient(self.host, replica.port, **kwargs)

    # -- replica process management -----------------------------------------
    def _replica(self, name: str) -> ManagedReplica:
        try:
            return self.replicas[name]
        except KeyError:
            raise FleetError(f"unknown replica {name!r}") from None

    def _start_replica(self, replica: ManagedReplica) -> None:
        state = ServiceState(
            SnapshotStore(replica.store_dir),
            weight_fn=self.weight_fn,
            window=self.window,
        )
        config = self._service_config(replica.name)
        config.host = self.host
        config.port = 0  # always an ephemeral port; the router is retargeted
        replica.runner = ServiceRunner(state, config).start()

    def _stop_replica(self, replica: ManagedReplica) -> None:
        if replica.runner is None:
            return
        runner = replica.runner
        replica.runner = None
        runner.stop()

    def kill_replica(self, name: str) -> None:
        """Non-graceful stop (the chaos 'crash'): in-flight work dies.

        The store directory survives, exactly like a real crash — the
        replica restarts from durable state via :meth:`restart_replica`.
        """
        replica = self._replica(name)
        if self.router_runner is not None:
            self.router_runner.eject(name, "killed")
        self._stop_replica(replica)

    def tip(self, name: str) -> int:
        """A replica's current absolute version, asked over its service."""
        with self.replica_client(name) as client:
            status = client.status()
        return int(status.get("window_last",
                              status.get("num_snapshots", 0) - 1))

    # -- resync -------------------------------------------------------------
    def _donor(self, exclude: str) -> str:
        """A healthy in-rotation replica to copy history from."""
        if self.router_runner is None:
            raise FleetError("the fleet router is not running")
        self.router_runner.probe()  # refresh health first
        rotation = [
            name for name, replica
            in self.router_runner.router.replicas.items()
            if replica.in_rotation and name != exclude
            and self.replicas[name].running
        ]
        if not rotation:
            raise FleetError(
                f"no healthy donor available to resync {exclude!r}"
            )
        return rotation[0]

    def resync(self, name: str, donor: Optional[str] = None, *,
               deadline: Optional[Deadline] = None) -> int:
        """Catch ``name`` up to the donor's tip; returns the new tip.

        Missing batches are read from the donor's SnapshotStore on disk
        and replayed through the lagging replica's own ingest lane.
        Refuses (``FleetError``) when the replica is *ahead* of the
        donor — that is divergence, not lag, and only
        :meth:`rebuild_replica` can reconcile it.  When ``deadline``
        expires mid-replay, :class:`ResyncStalledError` carries the
        batches already replayed (they are durable — a later resync
        resumes from the tip reached, not from scratch).
        """
        replica = self._replica(name)
        if not replica.running:
            raise FleetError(f"cannot resync {name!r}: it is not running")
        donor_name = donor if donor is not None else self._donor(name)
        donor_store = SnapshotStore(self.replicas[donor_name].store_dir)
        donor_tip = donor_store.num_snapshots - 1
        tip = self.tip(name)
        if tip > donor_tip:
            raise FleetError(
                f"replica {name!r} is ahead of donor {donor_name!r} "
                f"({tip} > {donor_tip}): its history diverged; rebuild it"
            )
        if tip == donor_tip:
            return tip
        replayed = 0
        with self.replica_client(name) as client:
            for index in range(tip, donor_tip):
                if deadline is not None and deadline.expired():
                    raise ResyncStalledError(
                        f"resync of {name!r} ran out of time after "
                        f"replaying {replayed} of {donor_tip - tip} "
                        f"batches (tip {tip + replayed})",
                        progress={
                            "replica": name,
                            "donor": donor_name,
                            "batches_replayed": replayed,
                            "batches_missing": donor_tip - tip - replayed,
                            "tip": tip + replayed,
                        },
                    )
                batch = donor_store.read_batch(index)
                client.ingest(
                    additions=_batch_pairs(batch.additions),
                    deletions=_batch_pairs(batch.deletions),
                )
                replayed += 1
        return self.tip(name)

    def _resync_and_restore(self, name: str) -> int:
        """Resync the replica to the fleet tip, then restore it.

        The bulk of the replay runs first, while writes keep flowing.
        The router's :meth:`~repro.fleet.router.FleetRouter.restore`
        then replays what landed meanwhile — including the batch its own
        fold of pending live-tip updates makes — inside the ingest-lock
        hold that checks the tip, so no write can outrun the catch-up
        and one round always converges.  The whole resync runs under the
        supervisor's ``resync_deadline_s``; when it expires mid-replay,
        :class:`ResyncStalledError` carries the partial progress.
        """
        deadline = (Deadline.after(self.resync_deadline_s)
                    if self.resync_deadline_s is not None
                    else Deadline.never())
        donor = self._donor(name)
        tip = self.resync(name, donor, deadline=deadline)
        if self.router_runner is None:
            return tip
        restored = self.router_runner.restore(
            name, catch_up=lambda: self.resync(name, donor,
                                               deadline=deadline))
        assert restored is not None
        return restored

    def rebuild_replica(self, name: str) -> int:
        """Replace a diverged replica's store with a donor copy."""
        replica = self._replica(name)
        donor_name = self._donor(name)
        self._stop_replica(replica)
        shutil.rmtree(replica.store_dir)
        shutil.copytree(self.replicas[donor_name].store_dir,
                        replica.store_dir)
        self._start_replica(replica)
        self._retarget(name)
        return self._resync_and_restore(name)

    def _retarget(self, name: str) -> None:
        """Point the router at a replica's (new) listening port."""
        replica = self._replica(name)
        if self.router_runner is None or replica.port is None:
            return
        self.router_runner.set_address(name, self.host, replica.port)

    # -- restart workflows ---------------------------------------------------
    def restart_replica(self, name: str, *,
                        graceful: bool = True) -> Dict[str, Any]:
        """Drain (or stop), restart, resync, restore one replica.

        The graceful path is one step of a rolling restart: the router
        stops routing new work to the replica first, PR 5's drain lets
        its in-flight requests finish, and the replica re-enters
        rotation only once its store tip matches the fleet's again.
        Returns a small report for tests and the CLI.
        """
        replica = self._replica(name)
        report: Dict[str, Any] = {"replica": name, "graceful": graceful}
        if self.router_runner is not None:
            if graceful:
                self.router_runner.mark_draining(name)
            else:
                self.router_runner.eject(name, "restart")
        if replica.runner is not None:
            runner = replica.runner
            replica.runner = None
            if graceful:
                report["drain"] = runner.drain()
            else:
                runner.stop()
        self._start_replica(replica)
        self._retarget(name)
        report["tip"] = self._resync_and_restore(name)
        return report

    def rolling_restart(self) -> List[Dict[str, Any]]:
        """Gracefully restart every replica, one at a time."""
        return [self.restart_replica(name) for name in self.replicas]

    def recover_replica(self, name: str) -> Dict[str, Any]:
        """Bring a killed replica back: start, resync, restore."""
        replica = self._replica(name)
        if replica.running:
            raise FleetError(f"replica {name!r} is already running")
        self._start_replica(replica)
        self._retarget(name)
        return {"replica": name, "tip": self._resync_and_restore(name)}

    def fleet_status(self) -> Dict[str, Any]:
        """The router's status document (one network round trip)."""
        with self.client() as client:
            return client.status()

    def __repr__(self) -> str:
        running = sum(1 for replica in self.replicas.values()
                      if replica.running)
        return (f"FleetSupervisor(replicas={len(self.replicas)}, "
                f"running={running}, root={self.root})")
