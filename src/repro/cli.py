"""Top-level command-line interface: ``python -m repro``.

Subcommands
-----------

``generate``
    Create an on-disk evolving-graph store from a named dataset (or an
    RMAT specification) plus a synthetic update stream.
``info``
    Summarise a store: sizes, batch statistics, common-graph share.
    ``--json`` prints the machine-readable summary; with ``--connect``
    it is fetched from a live ``serve`` instance (health check).
``serve`` / ``query``
    Run the live query service over a store, and query it.  See
    ``docs/service.md`` for the wire protocol.  ``serve --metrics PORT``
    adds a Prometheus endpoint and ``--obs-spans FILE`` a trace log
    (see ``docs/observability.md``).
``route``
    Run a replicated fleet: N replicas (each over its own copy of the
    store) behind a consistent-hashing router that fans ingests to all
    of them.  Clients speak the same protocol as ``serve``, so
    ``query`` and ``info --connect`` work against the router port.
``update``
    Apply one single-edge insert/delete to a running service's
    live-tip overlay (sub-batch latency, no Triangular-Grid rebuild),
    or force a ``compact`` that folds the pending update log into a
    durable batch.  See ``docs/livetip.md``.
``temporal``
    Historical analytics against a running service: point-in-time
    answers (``as_of`` a version or ingest timestamp), per-vertex
    timelines, temporal aggregates, snapshot diffs and sliding-window
    rollups.  See ``docs/temporal.md``.
``obs dump`` / ``obs tail``
    Inspect a live service's observability data: fetch the metrics
    endpoint, or render a span file as per-trace trees.
``evaluate``
    Answer a query over a store's snapshots (optionally a version
    range) with a chosen strategy, printing per-snapshot summaries or
    saving raw values.
``trend``
    Track metric series (reach, mean, extreme, best, or a vertex) for a
    query across snapshots, with change detection and an ASCII chart.
``store verify`` / ``store recover``
    Audit a store's integrity (checksums, torn appends, leftovers) and
    deterministically repair it.  ``verify`` exits non-zero when the
    store has problems, so it can gate pipelines.
``lint``
    Run the project-invariant static analyzer (``repro.lint``) over
    the package — lock discipline, async-safety, frozen-graph
    immutability, error taxonomy, determinism, instrument agreement,
    lock order.  Exits non-zero on any finding not silenced by an
    inline allow, so it gates CI.  See
    ``docs/static-analysis.md``.

The paper's evaluation has its own entry point outside the package,
``python -m benchmarks.paper`` (from the repository root).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.bench.reporting import render_table
from repro.core.common import CommonGraphDecomposition
from repro.core.results import encode_float_row
from repro.core.steiner import STRATEGIES
from repro.errors import ServiceError
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.store import SnapshotStore
from repro.evolving.version_control import VersionController
from repro.graph.generators import DATASETS, generate_dataset, rmat_edges
from repro.graph.weights import HashWeights

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset:
        base = generate_dataset(args.dataset, edge_scale=args.edge_scale)
        num_vertices = DATASETS[args.dataset].num_vertices
        name = args.dataset
    else:
        base = rmat_edges(args.scale, args.edges, seed=args.seed)
        num_vertices = 1 << args.scale
        name = f"rmat{args.scale}"
    evolving = generate_evolving_graph(
        num_vertices=num_vertices,
        base=base,
        num_snapshots=args.snapshots,
        batch_size=args.batch_size,
        add_fraction=args.add_fraction,
        readd_fraction=args.readd_fraction,
        seed=args.seed,
        name=name,
    )
    store = SnapshotStore.create(args.store, evolving)
    print(f"created {store}")
    return 0


class _Address(NamedTuple):
    """A parsed ``--connect HOST:PORT``; prints back as ``HOST:PORT``."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


def _address(text: str) -> _Address:
    """The ``type=`` of every ``--connect``: malformed input is a usage
    error (exit 2), never a traceback.  An empty host is localhost."""
    host, _, port = text.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = 0
    if not 0 < number < 65536:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return _Address(host or "127.0.0.1", number)


def _at_least(minimum: int) -> Callable[[str], int]:
    """The ``type=`` of a count flag: anything below ``minimum`` is a
    usage error (exit 2), never a traceback or a service that cannot
    answer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _timing(zero_ok: bool) -> Callable[[str], float]:
    """The ``type=`` of a timing flag: finite seconds > 0 (a budget or
    an interval), or >= 0 with ``zero_ok`` (a wait that may be nil).
    NaN, infinity or a non-number is a usage error (exit 2), never a
    traceback after the store is opened."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = -1.0
        if not math.isfinite(value) or not (
                value >= 0 if zero_ok else value > 0):
            raise argparse.ArgumentTypeError(
                f"expected seconds {bound}, got {text!r}")
        return value
    return parse


_seconds = _timing(zero_ok=False)
_wait = _timing(zero_ok=True)


def _add_connect(parser: argparse.ArgumentParser,
                 default: Optional[str] = "127.0.0.1:7421",
                 help: Optional[str] = None) -> None:
    parser.add_argument("--connect", default=default, metavar="HOST:PORT",
                        type=_address, help=help)


def _call_service(name: str, connect: _Address, call, timeout: float = 30.0):
    """Run ``call(client)`` against the service at ``connect``.

    The one place the client subcommands open a connection: a
    ``ServiceError``/``OSError`` is reported as ``<name>: <error>`` on
    stderr and ``None`` is returned (the subcommand then exits 2).
    """
    from repro.service.client import ServiceClient

    try:
        with ServiceClient(connect.host, connect.port,
                           timeout=timeout) as client:
            return call(client)
    except (ServiceError, OSError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return None


def _cmd_info(args: argparse.Namespace) -> int:
    import json

    if args.connect:
        payload = _call_service("info", args.connect,
                                lambda client: client.status())
        if payload is None:
            return 2
        payload.pop("id", None)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(_render_live_status(args.connect, payload))
        return 0
    if args.store is None:
        print("info: a store directory (or --connect) is required",
              file=sys.stderr)
        return 2
    store = SnapshotStore(args.store)
    evolving = store.load()
    decomp = CommonGraphDecomposition.from_evolving(evolving)
    if args.json:
        from repro.service.status import store_summary

        payload = store_summary(store, evolving=evolving,
                                decomposition=decomp)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    base_size = len(evolving.snapshot_edges(0))
    batch_sizes = [batch.size for batch in evolving.batches]
    rows = [
        ["name", store.name or "(unnamed)"],
        ["vertices", store.num_vertices],
        ["snapshots", store.num_snapshots],
        ["base edges", base_size],
        ["updates total", sum(batch_sizes)],
        ["batch size (min/max)",
         f"{min(batch_sizes)}/{max(batch_sizes)}" if batch_sizes else "-"],
        ["common graph edges", len(decomp.common)],
        ["common share of base", f"{len(decomp.common) / max(base_size, 1):.1%}"],
        ["direct-hop additions", decomp.total_direct_hop_additions()],
    ]
    print(render_table(["property", "value"], rows, title=f"store {args.store}"))
    if args.detailed:
        from repro.graph.stats import compute_stats, degree_histogram

        base_csr = evolving.snapshot_csr(0)
        stats = compute_stats(base_csr)
        print()
        print(render_table(
            ["property", "value"], stats.as_rows(),
            title="base snapshot structure",
        ))
        print()
        hist = degree_histogram(base_csr)
        print(render_table(
            ["out-degree", "vertices"], list(hist.items()),
            title="degree histogram",
        ))
    return 0


def _render_live_status(address: _Address, payload: dict) -> str:
    """Human rendering of a live status payload (service or fleet).

    Shows what an operator reaches for first: lifecycle, load counters,
    circuit breakers (state and when an open one re-probes),
    admission pressure, and — when the target is a fleet router — the
    per-replica rotation view.
    """
    sections = []
    lifecycle = payload.get("lifecycle", {})
    flags = ", ".join(
        name for name in ("live", "ready", "draining") if lifecycle.get(name)
    ) or "down"
    rows = [["lifecycle", flags]]
    for key in ("name", "num_vertices", "num_snapshots", "epoch",
                "window_first", "window_last", "serving"):
        if key in payload:
            rows.append([key, payload[key]])
    server = payload.get("server", {})
    for key in ("requests", "queries", "ingests", "answered",
                "shed", "errors", "failovers"):
        if key in server:
            rows.append([key, server[key]])
    sections.append(render_table(["property", "value"], rows,
                                 title=f"status {address}"))
    livetip = payload.get("livetip")
    if livetip and livetip.get("enabled"):
        rows = [
            [key, livetip[key]]
            for key in ("tip_version", "overlay_depth", "updates_total",
                        "compactions", "updates_folded",
                        "last_compaction_version")
            if key in livetip
        ]
        sections.append(render_table(
            ["property", "value"], rows, title="live tip",
        ))
    breakers = payload.get("breakers", {})
    if breakers:
        rows = [
            [
                name,
                snap.get("state", "?"),
                f"{snap.get('consecutive_failures', 0)}"
                f"/{snap.get('failure_threshold', '?')}",
                f"{snap.get('retry_after', 0.0):.2f}s",
                snap.get("opens", 0),
            ]
            for name, snap in sorted(breakers.items())
        ]
        sections.append(render_table(
            ["breaker", "state", "failures", "retry after", "opens"],
            rows, title="circuit breakers",
        ))
    admission = payload.get("admission", {})
    lanes = [(kind, snap) for kind, snap in admission.items()
             if isinstance(snap, dict)]
    if lanes:
        rows = [
            [
                kind,
                f"{snap.get('active', 0)}/{snap.get('max_concurrent', '?')}",
                f"{snap.get('waiting', 0)}/{snap.get('max_queue', '?')}",
                snap.get("admitted", 0),
                sum(snap.get("shed", {}).values()),
            ]
            for kind, snap in sorted(lanes)
        ]
        sections.append(render_table(
            ["lane", "active", "queued", "admitted", "shed"],
            rows, title="admission",
        ))
    fleet = payload.get("fleet")
    if fleet:
        rows = [
            [
                name,
                snap.get("address", "?"),
                snap.get("state", "?"),
                snap.get("reason") or "-",
                snap.get("version", "-"),
                snap.get("breaker", {}).get("state", "?"),
            ]
            for name, snap in sorted(fleet.get("replicas", {}).items())
        ]
        sections.append(render_table(
            ["replica", "address", "state", "reason", "tip", "breaker"],
            rows,
            title=f"fleet (tip {fleet.get('fleet_version')}, "
                  f"{len(fleet.get('rotation', []))} in rotation)",
        ))
    return "\n\n".join(sections)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    store = SnapshotStore(args.store)
    evolving = store.load()
    weight_fn = HashWeights(max_weight=args.max_weight, seed=args.weight_seed)
    controller = VersionController(evolving, weight_fn=weight_fn)
    algorithm = get_algorithm(args.algorithm)
    last = args.last if args.last is not None else store.num_snapshots - 1
    result = controller.evaluate(
        algorithm, args.source, first=args.first, last=last,
        strategy=args.strategy,
    )
    rows = []
    for k, values in enumerate(result.snapshot_values):
        finite = values[np.isfinite(values) & (values != algorithm.worst)]
        rows.append([
            args.first + k,
            int(finite.size),
            round(float(finite.mean()), 3) if finite.size else "-",
            round(float(finite.max()), 3) if finite.size else "-",
        ])
    print(render_table(
        ["version", "reached", "mean", "max"],
        rows,
        title=(
            f"{algorithm.name} from {args.source} on versions "
            f"{args.first}..{last} ({args.strategy})"
        ),
    ))
    print(f"additions streamed: {result.additions_processed}; "
          f"incremental steps: {result.stabilisations}; "
          f"time: {result.total_seconds:.4f}s")
    if args.out:
        np.savez_compressed(
            args.out,
            **{
                f"version_{args.first + k}": values
                for k, values in enumerate(result.snapshot_values)
            },
        )
        print(f"wrote values to {args.out}")
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import metric_names, vertex_value
    from repro.analysis.trends import TrendTracker, detect_changes

    store = SnapshotStore(args.store)
    evolving = store.load()
    weight_fn = HashWeights(max_weight=args.max_weight, seed=args.weight_seed)
    algorithm = get_algorithm(args.algorithm)
    metrics = []
    for name in args.metrics:
        if name.startswith("vertex:"):
            metrics.append(vertex_value(int(name.split(":", 1)[1])))
        elif name in metric_names():
            metrics.append(name)
        else:
            print(f"unknown metric {name!r}; available: "
                  f"{metric_names()} or vertex:<id>", file=sys.stderr)
            return 2
    tracker = TrendTracker(
        evolving, algorithm, args.source, weight_fn=weight_fn,
        strategy=args.strategy,
    )
    last = args.last if args.last is not None else store.num_snapshots - 1
    report = tracker.track(metrics=metrics, first=args.first, last=last)
    print(report.render(
        title=f"{algorithm.name} trends from vertex {args.source}"
    ))
    if args.chart:
        print()
        print(report.chart())
    for name, series in report.series.items():
        changes = detect_changes(series, threshold=args.change_threshold)
        if changes:
            snaps = [report.first_snapshot + i for i in changes]
            print(f"change points in {name!r}: snapshots {snaps}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.resilience import RetryPolicy
    from repro.service.admission import AdmissionPolicy
    from repro.service.server import GraphService, ServiceConfig
    from repro.service.state import ServiceState

    store = SnapshotStore(args.store)
    weight_fn = HashWeights(max_weight=args.max_weight, seed=args.weight_seed)

    metrics_server = None
    obs_enabled = args.metrics is not None or args.obs_spans is not None
    if obs_enabled:
        from repro import obs

        runtime = obs.configure(sample_rate=args.obs_sample,
                                span_sink=args.obs_spans)
        if args.metrics is not None:
            metrics_server = obs.MetricsServer(
                runtime.registry, host=args.host, port=args.metrics,
            ).start()

    state = ServiceState(
        store,
        weight_fn=weight_fn,
        window=args.window,
        result_cache_entries=args.result_cache,
        livetip=not args.no_livetip,
        livetip_max_updates=args.livetip_max_updates,
    )
    state.register_metrics()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1, base_delay=0.005,
                          multiplier=2.0, max_delay=0.1, retry_on=(OSError,)),
        query_admission=AdmissionPolicy(
            max_concurrent=args.max_concurrent,
            max_queue=args.queue_limit,
            queue_timeout=args.queue_timeout,
        ),
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_timeout=args.breaker_reset,
        drain_timeout=args.drain_timeout,
    )
    service = GraphService(state, config)

    async def _serve() -> None:
        import signal

        await service.start()
        loop = asyncio.get_running_loop()
        # SIGTERM/SIGINT trigger a graceful drain: stop admitting, let
        # in-flight requests land within --drain-timeout, then stop
        # the loop.  Signal handlers are
        # a main-thread-only, Unix-only facility — fall back to the
        # KeyboardInterrupt path when they are unavailable.
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(service.drain()),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                break
        print(f"serving {store.name or args.store} on "
              f"{config.host}:{service.port} "
              f"(window={args.window or 'all'}, epoch={state.published.epoch})")
        if metrics_server is not None:
            print(f"metrics on {metrics_server.url}/metrics")
        if args.obs_spans is not None:
            print(f"spans to {args.obs_spans} "
                  f"(sample rate {args.obs_sample})")
        await service.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        if obs_enabled:
            from repro import obs

            obs.disable()
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    import tempfile
    import threading

    from repro.fleet import FleetSupervisor, RouterConfig

    weight_fn = HashWeights(max_weight=args.max_weight, seed=args.weight_seed)
    root = args.root or tempfile.mkdtemp(prefix="repro-fleet-")
    router_config = RouterConfig(
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_timeout=args.breaker_reset,
        probe_interval_s=args.probe_interval,
    )
    supervisor = FleetSupervisor(
        args.store, root,
        replicas=args.replicas,
        weight_fn=weight_fn,
        window=args.window,
        router_config=router_config,
        host=args.host,
    )
    try:
        with supervisor:
            print(f"fleet router on {args.host}:{supervisor.router_port} "
                  f"({args.replicas} replicas, stores under {root})")
            for name, replica in supervisor.replicas.items():
                print(f"  {name}: {args.host}:{replica.port}")
            threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("shutting down fleet")
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    path = "/metrics.json" if args.json else "/metrics"
    url = f"http://{args.connect}{path}"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"obs dump: {url}: {exc}", file=sys.stderr)
        return 2
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.errors import ObservabilityError
    from repro.obs.export import read_spans, render_trace_trees

    path = Path(args.spans)
    if not path.is_file():
        print(f"obs tail: {path}: no such span file", file=sys.stderr)
        return 2
    offset = 0
    try:
        spans, offset = read_spans(path, offset)
        rendered = render_trace_trees(spans, limit=args.limit)
        if rendered:
            print(rendered)
        while args.follow:
            time.sleep(args.interval)
            spans, offset = read_spans(path, offset)
            if spans:
                rendered = render_trace_trees(spans)
                if rendered:
                    print(rendered)
    except ObservabilityError as exc:
        print(f"obs tail: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_ping(args: argparse.Namespace) -> int:
    alive = _call_service("ping", args.connect,
                          lambda client: client.ping(), args.timeout)
    if alive is None:
        return 2
    print(f"ping {args.connect}: {'ok' if alive else 'not ok'}")
    return 0 if alive else 2


def _cmd_shutdown(args: argparse.Namespace) -> int:
    done = _call_service("shutdown", args.connect,
                         lambda client: client.shutdown() or True,
                         args.timeout)
    if done is None:
        return 2
    print(f"shutdown {args.connect}: requested")
    return 0


def _parse_edges(pairs: list, what: str) -> list:
    edges = []
    for pair in pairs or []:
        u, sep, v = pair.partition(",")
        if not sep:
            raise ValueError(f"--{what} expects U,V (got {pair!r})")
        edges.append([int(u), int(v)])
    return edges


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    try:
        additions = _parse_edges(args.add, "add")
        deletions = _parse_edges(args.delete, "delete")
    except ValueError as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return 2
    response = _call_service(
        "ingest", args.connect,
        lambda client: client.ingest(additions=additions,
                                     deletions=deletions),
        args.timeout,
    )
    if response is None:
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    print(
        f"ingested +{len(additions)}/-{len(deletions)} edges: "
        f"version {response.get('version')}, epoch {response.get('epoch')}"
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    edge = None
    if args.edge is not None:
        try:
            (edge,) = _parse_edges([args.edge], "edge")
        except ValueError as exc:
            print(f"update: {exc}", file=sys.stderr)
            return 2
    if args.kind != "compact" and edge is None:
        print(f"update: {args.kind} requires --edge U,V", file=sys.stderr)
        return 2
    if args.kind == "compact" and edge is not None:
        print("update: compact carries no --edge", file=sys.stderr)
        return 2
    response = _call_service(
        "update", args.connect,
        lambda client: client.update(args.kind, *(edge or (None, None))),
        args.timeout,
    )
    if response is None:
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    if args.kind == "compact":
        print(
            f"compacted {response.get('updates_folded', 0)} update(s): "
            f"tip version {response.get('tip_version')}, "
            f"epoch {response.get('epoch')}"
        )
    else:
        print(
            f"{args.kind} edge {tuple(edge)}: seq {response.get('seq')}, "
            f"overlay depth {response.get('overlay_depth')} at tip "
            f"version {response.get('tip_version')}"
            + (f" (folded {response.get('updates_folded')} update(s))"
               if response.get("compacted") else "")
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    response = _call_service(
        "query", args.connect,
        lambda client: client.query(args.algorithm, args.source,
                                    first=args.first, last=args.last),
        args.timeout,
    )
    if response is None:
        return 2
    values = response["values"]
    if args.json:
        response["values"] = list(map(encode_float_row, values))
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    rows = []
    for k, vec in enumerate(values):
        finite = vec[np.isfinite(vec)]
        rows.append([
            response["first"] + k,
            int(finite.size),
            round(float(finite.mean()), 3) if finite.size else "-",
            round(float(finite.max()), 3) if finite.size else "-",
        ])
    print(render_table(
        ["version", "reached", "mean", "max"], rows,
        title=(
            f"{response['algorithm']} from {response['source']} on versions "
            f"{response['first']}..{response['last']} "
            f"(epoch {response['epoch']}, "
            f"{'cache hit' if response['from_cache'] else 'computed'})"
        ),
    ))
    return 0


def _temporal_spec_from_args(args: argparse.Namespace) -> dict:
    """One temporal spec document from the parsed mode sub-arguments."""
    mode = args.temporal_mode
    spec: dict = {"mode": mode}
    if mode == "point":
        if args.as_of is not None:
            spec["as_of"] = args.as_of
        if args.as_of_timestamp is not None:
            spec["as_of_timestamp"] = args.as_of_timestamp
    elif mode == "timeline":
        spec["vertex"] = args.vertex
    elif mode == "aggregate":
        spec["agg"] = args.agg
        if args.agg == "top_volatile" and args.k is not None:
            spec["k"] = args.k
    elif mode == "diff":
        spec["a"] = args.a
        spec["b"] = args.b
    elif mode == "rollup":
        spec["vertex"] = args.vertex
        spec["agg"] = args.agg
        spec["width"] = args.width
    if getattr(args, "first", None) is not None:
        spec["first"] = args.first
    if getattr(args, "last", None) is not None:
        spec["last"] = args.last
    return spec


def _render_temporal_result(result: dict) -> str:
    """One temporal result as an operator-readable table."""
    mode = result["mode"]
    if mode == "point":
        values = result["values"]
        finite = values[np.isfinite(values)]
        rows = [
            ["version", result["version"]],
            ["reached", int(finite.size)],
            ["mean", round(float(finite.mean()), 3) if finite.size else "-"],
            ["max", round(float(finite.max()), 3) if finite.size else "-"],
        ]
        return render_table(["property", "value"], rows,
                            title="point-in-time")
    if mode == "timeline":
        rows = [[result["first"] + k,
                 "unreached" if np.isinf(v) else round(float(v), 3)]
                for k, v in enumerate(result["values"])]
        return render_table(
            ["version", "value"], rows,
            title=f"timeline of vertex {result['vertex']}",
        )
    if mode == "aggregate":
        if result["agg"] == "top_volatile":
            rows = [[int(v), int(c)] for v, c in
                    zip(result["vertices"], result["counts"])]
            return render_table(
                ["vertex", "changes"], rows,
                title=(f"top-{result['k']} most volatile over "
                       f"{result['first']}..{result['last']}"),
            )
        values = result["values"]
        finite = values[np.isfinite(values)] if values.dtype.kind == "f" \
            else values
        rows = [
            ["vertices", int(values.size)],
            ["finite", int(finite.size)],
            ["mean", round(float(finite.mean()), 3) if finite.size else "-"],
            ["min", round(float(finite.min()), 3) if finite.size else "-"],
            ["max", round(float(finite.max()), 3) if finite.size else "-"],
        ]
        return render_table(
            ["property", "value"], rows,
            title=(f"{result['agg']} over versions "
                   f"{result['first']}..{result['last']}"),
        )
    if mode == "diff":
        rows = [
            ["became reachable", result["became_reachable"]],
            ["became unreachable", result["became_unreachable"]],
            ["value changed", result["value_changed"]],
        ]
        if "edge_additions" in result:
            rows.append(["edge additions", result["edge_additions"]])
            rows.append(["edge deletions", result["edge_deletions"]])
        return render_table(
            ["property", "value"], rows,
            title=f"diff version {result['a']} -> {result['b']}",
        )
    rows = [[first, "unreached" if np.isinf(v) else round(float(v), 3)]
            for first, v in zip(result["window_firsts"], result["values"])]
    return render_table(
        ["window start", result["agg"]], rows,
        title=(f"rollup of vertex {result['vertex']} "
               f"(width {result['width']})"),
    )


def _cmd_temporal(args: argparse.Namespace) -> int:
    import json

    spec = _temporal_spec_from_args(args)
    response = _call_service(
        "temporal", args.connect,
        lambda client: client.temporal(args.algorithm, args.source, [spec]),
        args.timeout,
    )
    if response is None:
        return 2
    if args.json:
        from repro.temporal import encode_results

        response["results"] = encode_results(response["results"])
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    print(f"{response['algorithm']} from {response['source']}, window "
          f"{response['window_first']}..{response['window_last']} "
          f"(epoch {response['epoch']}, "
          f"{response['ranges_evaluated']} range(s), "
          f"{response['snapshots_scanned']} snapshot(s) scanned)")
    for result in response["results"]:
        print()
        print(_render_temporal_result(result))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    report = SnapshotStore.verify_store(args.store, deep=args.deep)
    rows = [
        ["format", f"v{report.format_version}" if report.format_version else "?"],
        ["files checked", report.files_checked],
        ["problems", len(report.problems)],
        ["status", "ok" if report.ok else "CORRUPT"],
    ]
    print(render_table(["property", "value"], rows,
                       title=f"verify {args.store}"))
    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not report.ok:
        print("run `python -m repro store recover` to repair",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_store_recover(args: argparse.Namespace) -> int:
    from repro.errors import IntegrityError

    try:
        report = SnapshotStore.recover_store(args.store)
    except IntegrityError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 1
    if report.actions:
        for action in report.actions:
            print(f"recovered: {action}")
    else:
        print("store is consistent; nothing to do")
    check = SnapshotStore.verify_store(args.store, deep=args.deep)
    print(f"post-recovery verify: "
          f"{'ok' if check.ok else 'CORRUPT'} "
          f"({report.num_batches} batches)")
    for problem in check.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 0 if check.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import lint
    from repro.errors import LintError

    root = Path(args.root) if args.root else lint.package_root()
    engine = lint.LintEngine(root)
    if args.list_rules:
        for rule in engine.rules:
            print(f"{rule.name}: {rule.title}")
        return 0
    paths = [Path(p) for p in args.paths] if args.paths else [root / "repro"]
    try:
        result = engine.run(paths)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(lint.render_json(result))
    elif args.format == "sarif":
        print(lint.render_sarif(
            result, uri_prefix=_sarif_uri_prefix(root), rules=engine.rules,
        ))
    else:
        print(lint.render_text(result))
    return 0 if result.ok else 1


def _sarif_uri_prefix(root) -> str:
    """Engine root relative to the repository root (``src`` here).

    SARIF artifact URIs must be repository-relative for hosts to
    annotate diffs; finding paths are engine-root-relative.
    """
    from pathlib import Path

    resolved = Path(root).resolve()
    for candidate in (resolved, *resolved.parents):
        if (candidate / "pyproject.toml").is_file():
            try:
                return resolved.relative_to(candidate).as_posix().strip(".")
            except ValueError:
                return ""
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CommonGraph evolving-graph analytics (ASPLOS 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create an evolving-graph store")
    gen.add_argument("store", help="directory to create")
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--dataset", choices=sorted(DATASETS),
                       help="named scaled dataset")
    group.add_argument("--scale", type=int, default=10,
                       help="RMAT scale (vertices = 2^scale)")
    gen.add_argument("--edges", type=int, default=10_000,
                     help="edge count for --scale graphs")
    gen.add_argument("--edge-scale", type=float, default=1.0,
                     help="shrink factor for --dataset graphs")
    gen.add_argument("--snapshots", type=int, default=10)
    gen.add_argument("--batch-size", type=int, default=100)
    gen.add_argument("--add-fraction", type=float, default=0.5)
    gen.add_argument("--readd-fraction", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="summarise a store")
    info.add_argument("store", nargs="?", default=None)
    info.add_argument("--detailed", action="store_true",
                      help="include structural stats and degree histogram")
    info.add_argument("--json", action="store_true",
                      help="machine-readable summary (JSON)")
    _add_connect(info, default=None,
                 help="fetch live status from a running serve or route "
                      "instance (rendered; --json for raw)")
    info.set_defaults(func=_cmd_info)

    serve = sub.add_parser("serve", help="run the live query service")
    serve.add_argument("store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--window", type=_at_least(1), default=None,
                       help="serve only the last W snapshots")
    serve.add_argument("--result-cache", type=_at_least(1), default=256,
                       help="max memoised query results")
    serve.add_argument("--request-timeout", type=_seconds, default=30.0,
                       help="per-request deadline in seconds")
    serve.add_argument("--retries", type=_at_least(0), default=2,
                       help="store-append retries of an ingest before "
                            "it fails")
    serve.add_argument("--max-concurrent", type=_at_least(1), default=8,
                       help="query execution slots before requests queue")
    serve.add_argument("--queue-limit", type=_at_least(0), default=64,
                       help="queued queries beyond which requests are "
                            "shed with an overloaded response")
    serve.add_argument("--queue-timeout", type=_wait, default=5.0,
                       help="seconds a query may wait for a slot before "
                            "being shed")
    serve.add_argument("--breaker-threshold", type=_at_least(1), default=5,
                       help="consecutive failures before a circuit "
                            "breaker opens")
    serve.add_argument("--breaker-reset", type=_wait, default=5.0,
                       help="seconds an open breaker waits before "
                            "admitting a probe")
    serve.add_argument("--drain-timeout", type=_wait, default=10.0,
                       help="seconds SIGTERM-triggered drain waits for "
                            "in-flight requests")
    serve.add_argument("--no-livetip", action="store_true",
                       help="reject single-edge `update` requests "
                            "instead of absorbing them in the live-tip "
                            "overlay")
    serve.add_argument("--livetip-max-updates", type=_at_least(1), default=64,
                       help="pending updates that trigger a live-tip "
                            "compaction into a durable batch")
    serve.add_argument("--max-weight", type=int, default=64)
    serve.add_argument("--weight-seed", type=int, default=0)
    serve.add_argument("--metrics", type=int, default=None, metavar="PORT",
                       help="expose Prometheus metrics over HTTP on PORT "
                            "(0 picks an ephemeral port)")
    serve.add_argument("--obs-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="per-trace span sampling rate in [0, 1]")
    serve.add_argument("--obs-spans", default=None, metavar="FILE",
                       help="append finished spans to FILE as JSON lines "
                            "(read them with `repro obs tail`)")
    serve.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route", help="run a replicated fleet behind one router"
    )
    route.add_argument("store", help="base store each replica copies")
    route.add_argument("--replicas", type=_at_least(1), default=3)
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7420,
                       help="router TCP port (0 picks an ephemeral port)")
    route.add_argument("--root", default=None, metavar="DIR",
                       help="directory for per-replica store copies "
                            "(default: a fresh temp directory)")
    route.add_argument("--window", type=_at_least(1), default=None,
                       help="serve only the last W snapshots")
    route.add_argument("--request-timeout", type=_seconds, default=30.0,
                       help="per-request deadline in seconds, covering "
                            "failover retries")
    route.add_argument("--breaker-threshold", type=_at_least(1), default=3,
                       help="consecutive forward failures before a "
                            "replica's breaker opens")
    route.add_argument("--breaker-reset", type=_wait, default=1.0,
                       help="seconds an open replica breaker waits "
                            "before admitting a probe")
    route.add_argument("--probe-interval", type=_seconds, default=2.0,
                       help="seconds between background health probes; "
                            "each cycle adds seeded jitter so several "
                            "routers do not synchronize probe storms")
    route.add_argument("--max-weight", type=int, default=64)
    route.add_argument("--weight-seed", type=int, default=0)
    route.set_defaults(func=_cmd_route)

    query = sub.add_parser("query", help="query a running service")
    _add_connect(query)
    query.add_argument("--algorithm", default="SSSP",
                       help=f"one of {algorithm_names()}")
    query.add_argument("--source", type=int, default=0)
    query.add_argument("--first", type=int, default=None)
    query.add_argument("--last", type=int, default=None)
    query.add_argument("--timeout", type=_seconds, default=30.0)
    query.add_argument("--json", action="store_true",
                       help="print the raw response as JSON")
    query.set_defaults(func=_cmd_query)

    ping = sub.add_parser("ping", help="health-check a running service")
    _add_connect(ping)
    ping.add_argument("--timeout", type=_seconds, default=5.0)
    ping.set_defaults(func=_cmd_ping)

    shutdown = sub.add_parser(
        "shutdown", help="ask a running service to drain and exit"
    )
    _add_connect(shutdown)
    shutdown.add_argument("--timeout", type=_seconds, default=30.0)
    shutdown.set_defaults(func=_cmd_shutdown)

    ingest = sub.add_parser(
        "ingest", help="apply an edge batch to a running service"
    )
    _add_connect(ingest)
    ingest.add_argument("--add", action="append", metavar="U,V",
                        help="edge to add (repeatable)")
    ingest.add_argument("--delete", action="append", metavar="U,V",
                        help="edge to delete (repeatable)")
    ingest.add_argument("--timeout", type=_seconds, default=30.0)
    ingest.add_argument("--json", action="store_true",
                        help="print the raw response as JSON")
    ingest.set_defaults(func=_cmd_ingest)

    update = sub.add_parser(
        "update",
        help="apply one single-edge update to a running service's "
             "live tip (or force a compaction)",
    )
    update.add_argument("kind", choices=["insert", "delete", "compact"],
                        help="single-edge mutation, or `compact` to fold "
                             "the pending update log into a batch")
    update.add_argument("--edge", default=None, metavar="U,V",
                        help="the edge (required for insert/delete)")
    _add_connect(update)
    update.add_argument("--timeout", type=_seconds, default=30.0)
    update.add_argument("--json", action="store_true",
                        help="print the raw response as JSON")
    update.set_defaults(func=_cmd_update)

    temporal = sub.add_parser(
        "temporal",
        help="time-travel and historical analytics against a service",
    )
    temporal_sub = temporal.add_subparsers(dest="temporal_mode",
                                           required=True)

    def _temporal_common(p: argparse.ArgumentParser,
                         ranged: bool = True) -> None:
        _add_connect(p)
        p.add_argument("--algorithm", default="SSSP",
                       help=f"one of {algorithm_names()}")
        p.add_argument("--source", type=int, default=0)
        p.add_argument("--timeout", type=_seconds, default=30.0)
        p.add_argument("--json", action="store_true",
                       help="print the raw response as JSON")
        if ranged:
            p.add_argument("--first", type=int, default=None,
                           help="first version (default: window start)")
            p.add_argument("--last", type=int, default=None,
                           help="last version (default: window end)")
        p.set_defaults(func=_cmd_temporal)

    tp = temporal_sub.add_parser(
        "point", help="full answer vector as of one version or timestamp"
    )
    tp.add_argument("--as-of", type=int, default=None, metavar="VERSION")
    tp.add_argument("--as-of-timestamp", type=float, default=None,
                    metavar="UNIX_TS",
                    help="latest version ingested at or before this time")
    _temporal_common(tp, ranged=False)

    tt = temporal_sub.add_parser(
        "timeline", help="one vertex's value across a version range"
    )
    tt.add_argument("--vertex", type=int, required=True)
    _temporal_common(tt)

    ta = temporal_sub.add_parser(
        "aggregate", help="per-vertex aggregate over a version range"
    )
    ta.add_argument("--agg", required=True,
                    choices=["min", "max", "mean", "argmin", "argmax",
                             "first_reachable", "changed_count",
                             "top_volatile"])
    ta.add_argument("-k", type=int, default=None,
                    help="result size for top_volatile")
    _temporal_common(ta)

    td = temporal_sub.add_parser(
        "diff", help="value and reachability churn between two versions"
    )
    td.add_argument("--a", type=int, required=True, metavar="VERSION")
    td.add_argument("--b", type=int, required=True, metavar="VERSION")
    _temporal_common(td, ranged=False)

    tr = temporal_sub.add_parser(
        "rollup", help="sliding-window aggregate of one vertex"
    )
    tr.add_argument("--vertex", type=int, required=True)
    tr.add_argument("--agg", required=True,
                    choices=["min", "max", "mean", "changed_count"])
    tr.add_argument("--width", type=int, required=True,
                    help="sliding window width in snapshots")
    _temporal_common(tr)

    trend = sub.add_parser("trend", help="track metric trends over snapshots")
    trend.add_argument("store")
    trend.add_argument("--algorithm", default="SSSP")
    trend.add_argument("--source", type=int, default=0)
    trend.add_argument("--metrics", nargs="+", default=["reach", "mean"],
                       help="built-in metric names or vertex:<id>")
    trend.add_argument("--first", type=int, default=0)
    trend.add_argument("--last", type=int, default=None)
    trend.add_argument("--strategy", default="work-sharing",
                       choices=STRATEGIES)
    trend.add_argument("--chart", action="store_true", help="ASCII chart")
    trend.add_argument("--change-threshold", type=float, default=3.0)
    trend.add_argument("--max-weight", type=int, default=64)
    trend.add_argument("--weight-seed", type=int, default=0)
    trend.set_defaults(func=_cmd_trend)

    ev = sub.add_parser("evaluate", help="answer a query over snapshots")
    ev.add_argument("store")
    ev.add_argument("--algorithm", default="SSSP",
                    help=f"one of {algorithm_names()}")
    ev.add_argument("--source", type=int, default=0)
    ev.add_argument("--first", type=int, default=0, help="first version")
    ev.add_argument("--last", type=int, default=None, help="last version")
    ev.add_argument("--strategy", default="work-sharing",
                    choices=STRATEGIES)
    ev.add_argument("--max-weight", type=int, default=64)
    ev.add_argument("--weight-seed", type=int, default=0)
    ev.add_argument("--out", default=None, help="save raw values (.npz)")
    ev.set_defaults(func=_cmd_evaluate)

    lint_parser = sub.add_parser(
        "lint", help="run the project-invariant static analyzer"
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--root", default=None,
        help="source root anchoring relative paths (default: auto-detect)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (sarif for PR annotation)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    obs_parser = sub.add_parser(
        "obs", help="inspect a live service's observability data"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    od = obs_sub.add_parser(
        "dump", help="fetch metrics from a --metrics endpoint"
    )
    _add_connect(od, "127.0.0.1:9421",
                 help="the serve instance's --metrics address")
    od.add_argument("--json", action="store_true",
                    help="fetch the JSON snapshot instead of the "
                         "Prometheus text format")
    od.add_argument("--timeout", type=_seconds, default=10.0)
    od.set_defaults(func=_cmd_obs_dump)
    ot = obs_sub.add_parser(
        "tail", help="render a span file (--obs-spans) as trace trees"
    )
    ot.add_argument("spans", help="JSON-lines span file")
    ot.add_argument("--limit", type=int, default=None, metavar="N",
                    help="show only the last N traces")
    ot.add_argument("--follow", action="store_true",
                    help="keep watching the file for new spans")
    ot.add_argument("--interval", type=float, default=0.5,
                    help="poll interval for --follow, in seconds")
    ot.set_defaults(func=_cmd_obs_tail)

    st = sub.add_parser("store", help="audit and repair a store")
    st_sub = st.add_subparsers(dest="store_command", required=True)
    sv = st_sub.add_parser("verify", help="check store integrity")
    sv.add_argument("store")
    sv.add_argument("--deep", action="store_true",
                    help="also replay every batch and check the tip digest")
    sv.set_defaults(func=_cmd_store_verify)
    sr = st_sub.add_parser("recover", help="repair a damaged store")
    sr.add_argument("store")
    sr.add_argument("--deep", action="store_true",
                    help="deep-verify after recovering")
    sr.set_defaults(func=_cmd_store_recover)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
