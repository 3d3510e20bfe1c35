"""What the benchmark declares: workloads, metrics, and ``BENCHMARK.json``.

Everything another file needs to agree on lives here — workload names and
sizes, the end-to-end metrics with their regression bounds, the per-layer
metrics with the layer (module) they belong to — so ``BENCHMARK.json`` is
generated (``run.py --write-benchmark-json``), never hand-edited, and the
self-test can hold the runner to exactly these names.

This module imports nothing from ``repro``: the parent process of a run
stays light, and only the per-round worker pays the import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 15
#: Fresh-state rounds per untraced run; never scaled (sizes are, below).
ROUNDS = 3
DEFAULT_SEED = 11

#: Service window and the generator's model of the live-tip fold trigger
#: (``ServiceState(livetip_max_updates=64)``, the default).
WINDOW = 16
FOLD_EVERY = 64

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The speed probe: a fixed pure-Python loop each client thread times just
#: before every op.  Timings are reported as if the box ran the probe in
#: ``PROBE_REFERENCE_MS`` (what this 2-vCPU box needs when nothing else
#: disturbs it), because the box does not hold still: see README, "The
#: speed probe".
PROBE_ITERATIONS = 4000
PROBE_REFERENCE_MS = 0.165
#: Probes (in time order, all client threads) whose median is one op's
#: local probe time; the median drops the odd pre-empted probe.
PROBE_WINDOW = 7


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` is the line ``BENCHMARK.json`` carries."""

    name: str
    why: str
    dataset: str
    snapshots: int
    clients: int
    #: Unmeasured ops after state is built, before the first timed one.
    warmup_ops: int
    #: Every n-th value-carrying reply is checked against the oracle.
    check_every: int
    #: Ops the traced pass (and its untraced twin) runs per second of
    #: ``--seconds``: fixed counts, so counters repeat exactly per seed.
    traced_ops_per_second: float


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "offline_range",
        "paper's batch job (decompose DL/50, evaluate ranges); no service, "
        "state or wire, so only core/kickstarter/graph changes may move it",
        dataset="DL", snapshots=50, clients=1, warmup_ops=2, check_every=4,
        traced_ops_per_second=3.0,
    ),
    Workload(
        "serve_cold",
        "2 clients, distinct full-window queries, working set far above "
        "both caches: planner, kernels and value encoding on the critical "
        "path",
        dataset="LJ", snapshots=16, clients=2, warmup_ops=5, check_every=16,
        traced_ops_per_second=9.0,
    ),
    Workload(
        "serve_hot",
        "2 clients, Zipf over 48 keys that fit both caches, caches warmed: "
        "kernels idle, wire encode/decode and cache copies dominate",
        dataset="LJ", snapshots=16, clients=2, warmup_ops=64, check_every=48,
        traced_ops_per_second=16.0,
    ),
    Workload(
        "evolve_mixed",
        "1 client mixing window/tip queries with updates, ingests and "
        "temporal reads on one replica: epoch purges, live-tip folds, "
        "store appends",
        dataset="LJ", snapshots=16, clients=1, warmup_ops=5, check_every=16,
        traced_ops_per_second=18.0,
    ),
    Workload(
        "fleet_mixed",
        "the evolve_mixed stream through a 3-replica router: the per-op "
        "difference to evolve_mixed is the fleet tax",
        dataset="LJ", snapshots=16, clients=1, warmup_ops=5, check_every=12,
        traced_ops_per_second=12.0,
    ),
)
WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median it may worsen by.
    bound: Optional[float] = None
    #: Per-layer: the module the number belongs to.
    layer: str = ""
    what: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.25,
           what="correct ops / timed wall, median round"),
    Metric("query_p50_ms", "ms", "lower", 0.25,
           what="median round trip of a range query (offline: one range "
                "evaluation); tip-only queries excluded"),
    Metric("query_p90_ms", "ms", "lower", 0.25,
           what="90th percentile of the same samples (needs n >= 100)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           what="ru_maxrss of the round's process, median round"),
    Metric("setup_s", "s", "lower", 0.25,
           what="process spawn to first timed op, median round"),
)


def _layer(layer: str, *rows: Tuple[str, str, str, str]) -> List[Metric]:
    return [Metric(name, unit, better, layer=layer, what=what)
            for name, unit, better, what in rows]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer(
        "service.client",
        ("client.roundtrip_ms", "ms", "lower",
         "mean ServiceClient.request duration per request"),
        ("client.encode_ms", "ms", "lower",
         "validate_request + encode_line on the client thread, per op"),
        ("client.decode_ms", "ms", "lower",
         "decode_line + decode_values/decode_results on the client "
         "thread, per op"),
        ("client.overload_retries", "count", "lower",
         "requests sent beyond one per op"),
    ) + _layer(
        "service.protocol",
        ("protocol.decode_ms", "ms", "lower",
         "server/router-side decode_line + validate + parse_*, per op"),
        ("protocol.encode_ms", "ms", "lower",
         "server/router-side encode_values/encode_results + encode_line, "
         "per op"),
        ("protocol.bytes_out_per_op", "bytes", "lower",
         "bytes encoded by server and router threads, per op"),
        ("protocol.bytes_in_per_op", "bytes", "lower",
         "bytes decoded by server and router threads, per op"),
    ) + _layer(
        "service.server",
        ("server.residual_ms", "ms", "lower",
         "budget remainder per op: wait inside request minus every "
         "server-side span (socket, loop, executor hop, admission)"),
        ("server.coalesced", "count", "higher", "status() counter"),
        ("server.retried", "count", "lower", "status() counter"),
        ("server.degraded", "count", "lower", "status() counter"),
    ) + _layer(
        "service.admission",
        ("admission.shed", "count", "lower", "total shed over all lanes"),
        ("admission.queue_high_water", "count", "lower",
         "deepest waiting room seen on any lane"),
    ) + _layer(
        "service.state",
        ("state.query_self_ms", "ms", "lower",
         "ServiceState.query self time per query or tip query"),
        ("state.ingest_self_ms", "ms", "lower", "per ingest"),
        ("state.update_self_ms", "ms", "lower", "per update"),
        ("state.temporal_self_ms", "ms", "lower", "per temporal op"),
        ("state.epoch_bumps", "count", "lower",
         "epoch at the end of the pass (max over replicas)"),
    ) + _layer(
        "service.cache",
        ("cache.result_hit_rate", "ratio", "higher", "hits / lookups"),
        ("cache.node_hit_rate", "ratio", "higher", "hits / lookups"),
        ("cache.copy_ms", "ms", "lower",
         "LRUCache.get/put incl. copy-in/out, per op"),
        ("cache.evictions", "count", "lower", "both caches"),
    ) + _layer(
        "service.planner",
        ("planner.self_ms", "ms", "lower",
         "MemoizingPlanner.evaluate self time per op"),
        ("planner.stabilisations_per_query", "count", "lower",
         "PlannedAnswer.stabilisations / evaluate calls"),
        ("planner.additions_per_query", "count", "lower",
         "PlannedAnswer.additions_processed / evaluate calls"),
    ) + _layer(
        "core",
        ("core.decompose_ms", "ms", "lower",
         "from_evolving/from_snapshots self time per op"),
        ("core.plan_ms", "ms", "lower",
         "restrict + build_schedule + TriangularGrid.label, per op"),
        ("core.surplus_ms", "ms", "lower",
         "interval_surplus + common_csr + delta_csr, per op"),
        ("core.extend_ms", "ms", "lower", "extended(), per op"),
        ("core.schedule_cost_edges", "edges", "lower",
         "ScheduleTree.cost of the initial window's schedule"),
        ("core.ws_over_stream_work", "ratio", "lower",
         "work_seconds WorkSharing : StreamingSession, 3 sources"),
    ) + _layer(
        "kickstarter",
        ("kickstarter.static_ms", "ms", "lower", "static_compute, per op"),
        ("kickstarter.incremental_ms", "ms", "lower",
         "incremental_additions, per op"),
        ("kickstarter.trim_ms", "ms", "lower", "trim_and_repair, per op"),
        ("kickstarter.edges_relaxed_per_op", "count", "lower",
         "EngineCounters, exact"),
        ("kickstarter.iterations_per_op", "count", "lower",
         "EngineCounters, exact"),
        ("kickstarter.vertices_trimmed_per_op", "count", "lower",
         "EngineCounters, exact"),
    ) + _layer(
        "graph",
        ("graph.csr_build_ms", "ms", "lower",
         "CSRGraph.from_edge_set/from_edges, per op"),
        ("graph.edgeset_ms", "ms", "lower",
         "EdgeSet union/intersection/difference, per op"),
    ) + _layer(
        "livetip",
        ("livetip.apply_ms", "ms", "lower",
         "LiveTipOverlay.apply_update self time per update"),
        ("livetip.capture_ms", "ms", "lower",
         "capture + TipCapture.resolve self time, per op"),
        ("livetip.compact_ms", "ms", "lower",
         "Compactor.compact self time, per op"),
        ("livetip.folds", "count", "lower",
         "compactions (max over replicas)"),
        ("livetip.patched_answers", "count", "higher",
         "query replies carrying livetip_seq"),
    ) + _layer(
        "temporal",
        ("temporal.self_ms", "ms", "lower",
         "TemporalEngine.run self time per temporal op"),
        ("temporal.ranges_evaluated", "count", "lower",
         "reply field, mean per temporal op"),
        ("temporal.snapshots_scanned", "count", "lower",
         "reply field, mean per temporal op"),
    ) + _layer(
        "evolving.store",
        ("store.append_ms", "ms", "lower",
         "SnapshotStore.append self time per append"),
        ("store.load_ms", "ms", "lower",
         "SnapshotStore.load self time per load (state construction)"),
        ("store.bytes_per_batch", "bytes", "lower",
         "store directory growth / batches appended"),
    ) + _layer(
        "fleet",
        ("transport.forward_ms", "ms", "lower",
         "ReplicaTransport.request duration per leg"),
        ("transport.legs_per_op", "count", "lower", "forwards / ops"),
        ("router.residual_ms", "ms", "lower",
         "per op: wait inside request minus router spans and the "
         "forward interval"),
        ("router.failovers", "count", "lower", "router status()"),
        ("router.quarantines", "count", "lower",
         "replicas not in rotation at the end"),
        ("hashring.max_owner_share", "ratio", "lower",
         "largest replica share of the query-source pool"),
    ) + _layer(
        "harness",
        ("op.query_p50_ms", "ms", "lower",
         "untraced twin round: median range query"),
        ("op.tip_query_p50_ms", "ms", "lower", "same, tip-only queries"),
        ("op.update_p50_ms", "ms", "lower", "same, single-edge updates"),
        ("op.ingest_p50_ms", "ms", "lower", "same, batch ingests"),
        ("op.temporal_p50_ms", "ms", "lower", "same, temporal ops"),
        ("trace.overhead_pct", "%", "lower",
         "spans inside ops x calibrated cost of one span / summed op "
         "latency of the traced round"),
    )
)

def tail_supported(n: int, q: float) -> bool:
    """The percentile rule: at least ten samples beyond the percentile."""
    return n * (100 - q) >= 100 * MIN_TAIL_SAMPLES  # exact for integer q


#: Range queries each untraced round must finish so the pooled p90 obeys
#: the percentile rule (3 x 34 >= 100) even on a slow box.
MIN_QUERIES_PER_ROUND = 34


def benchmark_document() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_document(), indent=2) + "\n"
