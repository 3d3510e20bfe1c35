"""One round of one workload, in a process of its own.

``run.py`` spawns this file once per round, so every round starts from a
fresh interpreter: set-up time is the whole cost from spawn to the first
timed op (imports, graph generation, store and service start, warm-up),
caches and peak RSS belong to that round alone, and the run's
``setup_s`` is a median over real repetitions.  Timings are calibrated by
a speed probe (``_probe``/``_calibrate``; README, "The speed probe").  The
job arrives as one JSON argument; the result leaves as the last line of
stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import spec

sys.path.insert(0, str(spec.REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import trace as tracing  # noqa: E402


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- where the ops go ------------------------------------------------------------

class Offline:
    """``offline_range``: no service; an op is one library call."""

    #: Snapshots of the throwaway decomposition the warm-up evaluates on.
    WARMUP_SNAPSHOTS = 4

    def __init__(self, evolving: Any, work_dir: Path) -> None:
        self.evolving = evolving
        self.decomposition: Any = None
        self.store_dir: Optional[Path] = None

    def connect(self) -> "Offline":
        return self

    def close_client(self) -> None:
        pass

    def execute(self, op: Dict[str, Any]) -> Dict[str, Any]:
        from repro.algorithms.registry import get_algorithm
        from repro.core.common import CommonGraphDecomposition
        from repro.core.engine import WorkSharingEvaluator
        from repro.evolving.snapshots import EvolvingGraph
        from workloads import WF

        if op["type"] == "decompose":
            # A fresh EvolvingGraph: the job pays for materialising its
            # snapshots, as a batch run over new input would.
            source = self.evolving
            batches = (source.batches[:op["snapshots"] - 1]
                       if "snapshots" in op else source.batches)
            self.decomposition = CommonGraphDecomposition.from_evolving(
                EvolvingGraph(source.num_vertices, source.snapshot_edges(0),
                              batches))
            return {}
        result = WorkSharingEvaluator(
            self.decomposition, get_algorithm(op["algorithm"]), op["source"],
            weight_fn=WF,
        ).run()
        return {"first": 0, "last": len(result.snapshot_values) - 1,
                "values": result.snapshot_values}

    def counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Wire:
    """A ``ServiceClient`` speaking to one replica or to the router."""

    def __init__(self, client: Any) -> None:
        self._client = client.connect()

    def close_client(self) -> None:
        self._client.close()

    def execute(self, op: Dict[str, Any]) -> Dict[str, Any]:
        kind = op["type"]
        if kind in ("query", "tip_query"):
            return self._client.query(op["algorithm"], op["source"],
                                      op.get("first"), op.get("last"))
        if kind == "update":
            return self._client.update(op["kind"], *op["edge"])
        if kind == "ingest":
            return self._client.ingest(op["additions"], op["deletions"])
        return self._client.temporal(op["algorithm"], op["source"],
                                     op["queries"])


def _replica_counters(status: Dict[str, Any]) -> Dict[str, float]:
    totals = status["admission"]["totals"]
    caches = (status["result_cache"], status["node_cache"])
    return {
        "server.coalesced": status["server"]["coalesced"],
        "server.retried": status["server"]["retried"],
        "server.degraded": status["server"]["degraded"],
        "admission.shed": sum(totals["shed"].values()),
        "admission.queue_high_water": totals["max_depth"],
        "state.epoch_bumps": status["epoch"],
        "result.hits": caches[0]["hits"], "result.misses": caches[0]["misses"],
        "node.hits": caches[1]["hits"], "node.misses": caches[1]["misses"],
        "cache.evictions": sum(c["evictions"] for c in caches),
        "livetip.folds": status["livetip"]["compactions"],
    }


class Service:
    """One ``ServiceRunner`` over a fresh store."""

    def __init__(self, evolving: Any, work_dir: Path) -> None:
        from repro.evolving.store import SnapshotStore
        from repro.service import ServiceRunner, ServiceState
        from workloads import WF

        self.store_dir = work_dir / "store"
        store = SnapshotStore.create(self.store_dir, evolving)
        self._state = ServiceState(store, weight_fn=WF, window=spec.WINDOW)
        self._runner = ServiceRunner(self._state).start()

    def connect(self) -> Wire:
        from repro.service import ServiceClient

        return Wire(ServiceClient(port=self._runner.port))

    def counters(self) -> Dict[str, float]:
        from repro.service import ServiceClient

        with ServiceClient(port=self._runner.port) as client:
            return _replica_counters(client.status())

    def close(self) -> None:
        self._runner.stop()
        self._state.close()


class Fleet:
    """A 3-replica ``FleetSupervisor``; ops go to its router."""

    REPLICAS = 3

    def __init__(self, evolving: Any, work_dir: Path) -> None:
        from repro.evolving.store import SnapshotStore
        from repro.fleet import FleetSupervisor
        from workloads import WF

        base = work_dir / "store"
        SnapshotStore.create(base, evolving)
        self._fleet = FleetSupervisor(
            base, work_dir / "fleet", replicas=self.REPLICAS, weight_fn=WF,
            window=spec.WINDOW,
        ).start()
        self.store_dir = work_dir / "fleet" / "replica-0" / "store"

    def connect(self) -> Wire:
        return Wire(self._fleet.client())

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for name in self._fleet.replicas:
            with self._fleet.replica_client(name) as client:
                one = _replica_counters(client.status())
            for key, value in one.items():
                # Replicas agree on epoch and folds; the rest adds up.
                merged[key] = (max(merged.get(key, 0), value)
                               if key in ("state.epoch_bumps", "livetip.folds",
                                          "admission.queue_high_water")
                               else merged.get(key, 0) + value)
        with self._fleet.client() as client:
            router = client.status()
        merged["router.failovers"] = router["server"]["failovers"]
        merged["router.quarantines"] = (
            len(router["fleet"]["replicas"]) - len(router["fleet"]["rotation"]))
        return merged

    def close(self) -> None:
        self._fleet.stop()


ENVIRONMENTS = {"offline_range": Offline, "fleet_mixed": Fleet}


# -- the timed loop ----------------------------------------------------------------

class Feed:
    """The shared op stream plus the rule that ends a round.

    A round ends when ``max_ops`` were issued (fixed-count rounds: the
    traced pass and its twin), or once ``seconds`` have passed *and*
    ``min_queries`` range queries were issued (time-bounded rounds), or
    at the hard cap.  Closed loop: a client takes its next op only after
    the previous reply.
    """

    def __init__(self, source: Iterator[Tuple[Dict, Any]], seconds: float,
                 max_ops: Optional[int], min_queries: int) -> None:
        self._source = source
        self._lock = threading.Lock()
        self._seconds = seconds
        self._hard_cap = 3 * seconds + 10
        self._max_ops = max_ops
        self._min_queries = min_queries
        self.issued = 0
        self._queries = 0
        #: Set by the first take(): the first timed op.
        self.started = 0.0
        self.started_wall = 0.0

    def take(self) -> Optional[Tuple[int, Dict, Any]]:
        with self._lock:
            if not self.started:
                self.started = time.perf_counter()
                self.started_wall = time.time()
            elapsed = time.perf_counter() - self.started
            if self._max_ops is not None and self.issued >= self._max_ops:
                return None
            if elapsed >= self._hard_cap:
                return None
            if elapsed >= self._seconds and self._queries >= self._min_queries:
                return None
            op, expect = next(self._source)
            index = self.issued
            self.issued += 1
            if op["type"] == "query":
                self._queries += 1
            return index, op, expect


def _probe() -> float:
    """Milliseconds the box needs for the fixed probe loop right now."""
    begin = time.perf_counter()
    total = 0
    for i in range(spec.PROBE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - begin) * 1000.0


def _calibrate(samples: List[List[Any]]) -> float:
    """Rescale each sample's latency to reference speed, in place.

    A row arrives as ``[type, ms, ok, when, probe ms]`` and leaves as
    ``[type, calibrated ms, ok, measured ms]``.  An op's local probe time
    is the median of the ``PROBE_WINDOW`` probes around it in time (from
    any client thread); its latency is divided by local / reference.
    Returns the round's speed factor, latency-weighted, by which the
    measured wall is to be divided as well.
    """
    order = sorted(samples, key=lambda row: row[3])
    half = spec.PROBE_WINDOW // 2
    locals_ms = [
        statistics.median(row[4] for row in order[max(0, i - half):i + half + 1])
        for i in range(len(order))
    ]
    measured = calibrated = 0.0
    for row, local in zip(order, locals_ms):
        raw = row[1]
        row[3:] = [raw]
        if raw is not None:
            row[1] = raw * spec.PROBE_REFERENCE_MS / local
            measured += raw
            calibrated += row[1]
    return measured / calibrated if calibrated else 1.0


def _receipt_problem(op: Dict, reply: Dict, expect: Any) -> Optional[str]:
    """Write receipts must be strictly consecutive with the model."""
    if op["type"] == "update":
        got = (reply.get("seq"), reply.get("tip_version"))
        if got != (expect.seq, expect.tip_version):
            return f"update receipt (seq, tip) {got} != " \
                   f"{(expect.seq, expect.tip_version)}"
    elif op["type"] == "ingest" and reply.get("version") != expect.tip_version:
        return f"ingest receipt version {reply.get('version')} != " \
               f"{expect.tip_version}"
    return None


def _answers(op: Dict, reply: Dict, index: int) -> Dict[int, np.ndarray]:
    from oracle import versions_to_check

    if op["type"] == "temporal":
        timeline = reply["results"][0]
        first, last, values = (timeline["first"], timeline["last"],
                               timeline["values"])
    else:
        first, last, values = reply["first"], reply["last"], reply["values"]
    return {version: np.array(values[version - first])
            for version in versions_to_check(first, last, index)}


def run_round(job: Dict[str, Any]) -> Dict[str, Any]:
    workload = spec.WORKLOAD_BY_NAME[job["workload"]]
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    import oracle
    import workloads
    from repro.errors import ReproError

    # Set-up is calibrated like the ops: probe bursts at its milestones.
    setup_probes: List[float] = []

    def probe_setup() -> None:
        setup_probes.extend(_probe() for _ in range(5))

    probe_setup()  # interpreter start and imports are behind us
    work_dir = Path(job["work_dir"])
    evolving = workloads.build_evolving(workload, job["seed"])
    model = workloads.TipModel(evolving)
    sha = workloads.stream_sha256(workload.name, job["seed"], evolving)
    source = workloads.stream(workload.name, job["seed"], evolving, model)
    probe_setup()
    env = ENVIRONMENTS.get(workload.name, Service)(evolving, work_dir)
    offline = isinstance(env, Offline)
    probe_setup()

    samples: List[List[Any]] = []  # see _calibrate for the row layout
    problems: List[str] = []
    recorded: List[oracle.Recorded] = []
    op_types: Dict[int, str] = {}
    # Reply-derived counts for the per-layer metrics; only the traced
    # round (one client thread) reads them.
    extras = {"patched": 0, "ranges": 0, "scanned": 0}
    try:
        feed = Feed(source, job["seconds"], job["max_ops"],
                    job["min_queries"])
        clients = [env.connect() for _ in range(job["clients"])]
        _warm_up(clients[0], workload, job["seed"], source, evolving)
        probe_setup()
        store_before = _dir_bytes(env.store_dir) if env.store_dir else 0
        tip_before = model.tip_version
        barrier = threading.Barrier(len(clients) + 1)

        def client_loop(client: Any) -> None:
            barrier.wait()
            while True:
                taken = feed.take()
                if taken is None:
                    return
                index, op, expect = taken
                op_types[index] = op["type"]
                probe = [time.perf_counter(), _probe()]
                begin = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.op(index, offline=offline):
                            reply = client.execute(op)
                    else:
                        reply = client.execute(op)
                except (ReproError, OSError) as exc:
                    samples.append([op["type"], None, False] + probe)
                    problems.append(f"op {index} {op['type']}: {exc!r}")
                    continue
                elapsed_ms = (time.perf_counter() - begin) * 1000.0
                problem = _receipt_problem(op, reply, expect)
                if problem is not None:
                    problems.append(f"op {index}: {problem}")
                samples.append([op["type"], elapsed_ms, problem is None]
                               + probe)
                if "livetip_seq" in reply:
                    extras["patched"] += 1
                if op["type"] == "temporal":
                    extras["ranges"] += reply["ranges_evaluated"]
                    extras["scanned"] += reply["snapshots_scanned"]
                if "algorithm" in op and index % workload.check_every == 0:
                    recorded.append(oracle.Recorded(
                        index, op, expect, _answers(op, reply, index)))

        threads = [threading.Thread(target=client_loop, args=(client,),
                                    name=f"perf-client-{i}")
                   for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - feed.started
        speed = _calibrate(samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        counters = env.counters()
        appended = model.tip_version - tip_before
        if appended and env.store_dir:
            counters["store.bytes_per_batch"] = (
                (_dir_bytes(env.store_dir) - store_before) / appended)
        for client in clients:
            client.close_client()
    finally:
        env.close()

    mismatches = oracle.Oracle(model).mismatches(recorded)
    setup_s = feed.started_wall - job["spawned_at"]
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": job["seed"], "round": job["round"],
        "traced": bool(job["trace"]), "stream_sha256": sha,
        "setup_measured_s": setup_s,
        "setup_s": setup_s * spec.PROBE_REFERENCE_MS
        / statistics.median(setup_probes),
        "wall_s": wall, "speed": speed,
        "attempted": feed.issued,
        "failed": len(problems) + len(mismatches),
        "oracle_checked": sum(len(r.answers) for r in recorded),
        "problems": (problems + mismatches)[:20],
        "peak_rss_mb": peak_rss_mb, "samples": samples,
        "counters": counters,
    }
    if tracer is not None:
        tracer.uninstall()
        budget = tracer.budget(op_types)
        result["layers"] = _layer_metrics(budget, counters, extras, workload,
                                          job["seed"], evolving)
        result["layers"]["trace.overhead_pct"] = (
            100.0 * budget.spans_in_ops * tracer.span_cost()
            / sum(budget.latency.values()))
        result["budget"] = _budget_tables(budget)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"], workload.name, op_types)
    return result


def _warm_up(client: Any, workload: spec.Workload, seed: int,
             source: Iterator[Tuple[Dict, Any]], evolving: Any) -> None:
    """Unmeasured ops, so lazy set-up finishes and caches fill before timing.

    Service workloads run the first ``warmup_ops`` ops of their own stream
    (serve_hot's caches then hold exactly its hot keys).  ``offline_range``
    keeps its stream intact — the decomposition must be timed — and warms
    up on a throwaway 4-snapshot decomposition and sources of its own.
    """
    import workloads

    if workload.name != "offline_range":
        for _ in range(workload.warmup_ops):
            client.execute(next(source)[0])
        return
    rng = np.random.default_rng([seed, 0xC0FFEE])
    sources = workloads.active_sources(evolving)
    client.execute({"type": "decompose",
                    "snapshots": Offline.WARMUP_SNAPSHOTS})
    for i in range(workload.warmup_ops):
        client.execute({"type": "query",
                        "algorithm": workloads.ALGORITHMS[i % 2],
                        "source": int(rng.choice(sources))})


# -- per-layer metrics of a traced round --------------------------------------------

def _layer_metrics(budget: tracing.Budget, counters: Dict[str, float],
                   extras: Dict[str, int], workload: spec.Workload, seed: int,
                   evolving: Any) -> Dict[str, float]:
    ops = max(budget.total_ops, 1)

    def mean_duration_ms(key: str) -> float:
        calls = budget.calls[key]
        return 1000.0 * budget.durations[key] / calls if calls else 0.0

    def rate(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    relaxed = iterations = trimmed = 0
    for edges_relaxed, its, vertices_trimmed in budget.extras["counters"]:
        relaxed += edges_relaxed
        iterations += its
        trimmed += vertices_trimmed
    planned = budget.extras["planned"]
    temporal_ops = max(budget.ops.get("temporal", 0), 1)
    metrics = {
        "client.roundtrip_ms": mean_duration_ms("client.roundtrip"),
        "client.overload_retries":
            max(budget.calls["client.roundtrip"] - budget.total_ops, 0),
        "protocol.bytes_out_per_op": sum(budget.extras["bytes_out"]) / ops,
        "protocol.bytes_in_per_op": sum(budget.extras["bytes_in"]) / ops,
        "state.query_self_ms":
            budget.per_op_ms("state.query", ("query", "tip_query")),
        "state.ingest_self_ms": budget.per_op_ms("state.ingest", ("ingest",)),
        "state.update_self_ms": budget.per_op_ms("state.update", ("update",)),
        "state.temporal_self_ms":
            budget.per_op_ms("state.temporal", ("temporal",)),
        "cache.result_hit_rate":
            rate(counters.get("result.hits", 0), counters.get("result.misses", 0)),
        "cache.node_hit_rate":
            rate(counters.get("node.hits", 0), counters.get("node.misses", 0)),
        "planner.stabilisations_per_query":
            sum(p[0] for p in planned) / max(len(planned), 1),
        "planner.additions_per_query":
            sum(p[1] for p in planned) / max(len(planned), 1),
        "kickstarter.edges_relaxed_per_op": relaxed / ops,
        "kickstarter.iterations_per_op": iterations / ops,
        "kickstarter.vertices_trimmed_per_op": trimmed / ops,
        "livetip.apply_ms": budget.per_op_ms("livetip.apply", ("update",)),
        "livetip.patched_answers": extras["patched"],
        "temporal.self_ms": budget.per_op_ms("temporal.self", ("temporal",)),
        "temporal.ranges_evaluated": extras["ranges"] / temporal_ops,
        "temporal.snapshots_scanned": extras["scanned"] / temporal_ops,
        "store.append_ms": budget.per_call_ms("store.append"),
        "store.load_ms": budget.per_call_ms("store.load", outside=True),
        "transport.forward_ms": mean_duration_ms("transport.forward"),
        "transport.legs_per_op": budget.calls["transport.forward"] / ops,
    }
    for key in ("client.encode", "client.decode", "protocol.decode",
                "protocol.encode", "cache.copy", "planner.self",
                "core.decompose", "core.plan", "core.surplus", "core.extend",
                "kickstarter.static", "kickstarter.incremental",
                "kickstarter.trim", "graph.csr_build", "graph.edgeset",
                "livetip.capture", "livetip.compact", "server.residual",
                "router.residual"):
        metrics[key + "_ms"] = budget.per_op_ms(key)
    for name in ("server.coalesced", "server.retried", "server.degraded",
                 "admission.shed", "admission.queue_high_water",
                 "state.epoch_bumps", "cache.evictions", "livetip.folds",
                 "store.bytes_per_batch", "router.failovers",
                 "router.quarantines"):
        metrics[name] = counters.get(name, 0)
    metrics.update(_structural_metrics(workload, seed, evolving))
    return metrics


def _structural_metrics(workload: spec.Workload, seed: int,
                        evolving: Any) -> Dict[str, float]:
    """Numbers read off the input, not off the op stream."""
    import workloads
    from repro.algorithms.registry import get_algorithm
    from repro.core.common import CommonGraphDecomposition
    from repro.core.engine import WorkSharingEvaluator
    from repro.core.steiner import build_schedule
    from repro.core.triangular_grid import TriangularGrid
    from repro.fleet.hashring import ConsistentHashRing
    from repro.kickstarter.streaming import StreamingSession

    decomposition = CommonGraphDecomposition.from_evolving(evolving)
    grid = TriangularGrid(decomposition)
    rng = np.random.default_rng([seed, 0x5EED])
    shared = streamed = 0.0
    sources = workloads.active_sources(evolving)
    for vertex in rng.choice(sources, size=3, replace=False).tolist():
        algorithm = get_algorithm("SSSP")
        shared += WorkSharingEvaluator(
            decomposition, algorithm, vertex, weight_fn=workloads.WF,
        ).run().work_seconds
        streamed += StreamingSession(
            evolving, algorithm, vertex, weight_fn=workloads.WF,
        ).run().work_seconds
    share = 0.0
    pool = workloads.query_source_pool(workload.name, seed, evolving)
    if workload.name == "fleet_mixed":
        ring = ConsistentHashRing(
            [f"replica-{i}" for i in range(Fleet.REPLICAS)])
        share = max(ring.assignment(pool).values()) / len(pool)
    return {
        "core.schedule_cost_edges": build_schedule(grid).cost(grid),
        "core.ws_over_stream_work": shared / streamed if streamed else 0.0,
        "hashring.max_owner_share": share,
    }


def _budget_tables(budget: tracing.Budget) -> Dict[str, Any]:
    return {
        op_type: {"ops": budget.ops[op_type],
                  "latency_ms": 1000.0 * budget.latency[op_type]
                  / budget.ops[op_type],
                  "rows": budget.rows(op_type)}
        for op_type in sorted(budget.ops) if budget.ops[op_type]
    }


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[1]))))
