"""From-outside tracing: timing wrappers around each layer's public calls.

The program under test has no spans of its own on these seams (and
``repro.obs`` stays disabled), so the per-layer budget is taken by
wrapping the public callables named in :data:`SEAMS`: the defining
module/class *and* every ``repro.*`` module that imported the name are
patched before any state is built, and restored afterwards.

A span records (seam, thread role, op id, parent, start, end).  Parents
come from a per-thread stack, so a span's **self time** is its duration
minus its direct children on the same thread; work handed to another
thread (client -> server loop -> executor) is tied together by the op id
the single traced client sets before each op.  Spans stay in memory and
are written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SEAMS", "Seam", "Tracer", "Budget"]


@dataclass(frozen=True)
class Seam:
    """One wrapped callable: where it lives and which budget row it feeds."""

    target: str  # "module:attr" or "module:Class.attr"
    layer: str
    key: str     # metric stem, e.g. "kickstarter.static"
    #: Client-thread calls of shared wire helpers belong to the client.
    client_key: Optional[str] = None
    hook: Optional[str] = None
    is_async: bool = False


def _seams() -> Tuple[Seam, ...]:
    proto = "repro.service.protocol:"
    common = "repro.core.common:CommonGraphDecomposition."
    return (
        Seam("repro.service.client:ServiceClient.request",
             "service.client", "client.roundtrip"),
        Seam("repro.service.client:ServiceClient.decode_values",
             "service.client", "client.decode"),
        Seam("repro.temporal.timeline:decode_results",
             "service.client", "client.decode"),
        Seam(proto + "encode_line", "service.protocol", "protocol.encode",
             client_key="client.encode", hook="bytes_out"),
        Seam(proto + "decode_line", "service.protocol", "protocol.decode",
             client_key="client.decode", hook="bytes_in"),
        Seam(proto + "validate_request", "service.protocol",
             "protocol.decode", client_key="client.encode"),
        Seam(proto + "parse_ingest_batch", "service.protocol",
             "protocol.decode"),
        Seam(proto + "parse_update", "service.protocol", "protocol.decode"),
        Seam("repro.temporal.plan:parse_specs", "service.protocol",
             "protocol.decode", client_key="client.encode"),
        Seam(proto + "encode_values", "service.protocol", "protocol.encode"),
        Seam("repro.temporal.timeline:encode_results", "service.protocol",
             "protocol.encode"),
        Seam("repro.service.state:ServiceState.query", "service.state",
             "state.query"),
        Seam("repro.service.state:ServiceState.ingest", "service.state",
             "state.ingest"),
        Seam("repro.service.state:ServiceState.update", "service.state",
             "state.update"),
        Seam("repro.service.state:ServiceState.temporal", "service.state",
             "state.temporal"),
        Seam("repro.service.cache:LRUCache.get", "service.cache",
             "cache.copy"),
        Seam("repro.service.cache:LRUCache.put", "service.cache",
             "cache.copy"),
        Seam("repro.service.planner:MemoizingPlanner.evaluate",
             "service.planner", "planner.self", hook="planned"),
        Seam(common + "from_evolving", "core", "core.decompose"),
        Seam(common + "from_snapshots", "core", "core.decompose"),
        Seam(common + "restrict", "core", "core.plan"),
        Seam("repro.core.steiner:build_schedule", "core", "core.plan"),
        Seam("repro.core.triangular_grid:TriangularGrid.label", "core",
             "core.plan"),
        Seam(common + "common_csr", "core", "core.surplus"),
        Seam(common + "delta_csr", "core", "core.surplus"),
        Seam(common + "extended", "core", "core.extend"),
        Seam("repro.kickstarter.engine:static_compute", "kickstarter",
             "kickstarter.static", hook="counters:4"),
        Seam("repro.kickstarter.engine:incremental_additions", "kickstarter",
             "kickstarter.incremental", hook="counters:6"),
        Seam("repro.kickstarter.deletion:trim_and_repair", "kickstarter",
             "kickstarter.trim", hook="counters:4"),
        Seam("repro.graph.csr:CSRGraph.from_edge_set", "graph",
             "graph.csr_build"),
        Seam("repro.graph.csr:CSRGraph.from_edges", "graph",
             "graph.csr_build"),
        Seam("repro.graph.edgeset:EdgeSet.union", "graph", "graph.edgeset"),
        Seam("repro.graph.edgeset:EdgeSet.intersection", "graph",
             "graph.edgeset"),
        Seam("repro.graph.edgeset:EdgeSet.difference", "graph",
             "graph.edgeset"),
        Seam("repro.livetip.overlay:LiveTipOverlay.apply_update", "livetip",
             "livetip.apply"),
        Seam("repro.livetip.overlay:LiveTipOverlay.capture", "livetip",
             "livetip.capture"),
        Seam("repro.livetip.overlay:TipCapture.resolve", "livetip",
             "livetip.capture"),
        Seam("repro.livetip.compactor:Compactor.compact", "livetip",
             "livetip.compact"),
        Seam("repro.temporal.engine:TemporalEngine.run", "temporal",
             "temporal.self"),
        Seam("repro.evolving.store:SnapshotStore.append", "evolving.store",
             "store.append"),
        Seam("repro.evolving.store:SnapshotStore.load", "evolving.store",
             "store.load"),
        Seam("repro.fleet.transport:ReplicaTransport.request", "fleet",
             "transport.forward", is_async=True),
    )


SEAMS: Tuple[Seam, ...] = _seams()

#: The harness's own root span around each op: a typed client call, or
#: (offline_range, no service) one evaluation whose glue code is core's.
OP_SEAM = Seam("harness:op", "service.client", "client.call")
OFFLINE_OP_SEAM = Seam("harness:evaluate", "core", "core.evaluate")
ROOT_SEAMS = (OP_SEAM, OFFLINE_OP_SEAM)

# Span record fields (a list, filled in place when the call returns).
_SID, _SEAM, _ROLE, _THREAD, _OP, _PARENT, _START, _END, _CHILD, _EXTRA = range(10)


def _role(thread_name: str) -> str:
    if thread_name.startswith("perf-client"):
        return "client"
    if thread_name.startswith("repro-fleet"):
        return "router"
    return "server"  # service loop ("repro-service") and its executor


class Tracer:
    """Installs the wrappers, collects spans, computes budgets."""

    def __init__(self) -> None:
        self.seams: List[Seam] = list(SEAMS) + list(ROOT_SEAMS)
        self.spans: List[list] = []
        self.current_op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute name, original value) for every patched slot.
        self.patches: List[Tuple[Any, str, Any]] = []

    # -- span plumbing -------------------------------------------------------
    def _thread(self) -> Tuple[List[list], str, int]:
        local = self._local
        try:
            return local.state
        except AttributeError:
            thread = threading.current_thread()
            local.state = ([], _role(thread.name), thread.ident or 0)
            return local.state

    def _open(self, seam: int, push: bool = True) -> list:
        stack, role, ident = self._thread()
        parent = stack[-1] if (stack and push) else None
        record = [next(self._ids), seam, role, ident, self.current_op,
                  None if parent is None else parent[_SID],
                  time.perf_counter(), 0.0, 0.0, None]
        if push:
            stack.append(record)
        self.spans.append(record)
        return record

    def _close(self, record: list, pushed: bool = True) -> None:
        record[_END] = time.perf_counter()
        if pushed:
            stack = self._thread()[0]
            stack.pop()
            if stack:
                stack[-1][_CHILD] += record[_END] - record[_START]

    def op(self, op_id: int, offline: bool = False) -> "_OpSpan":
        """Root span for one op; sets the op id every thread tags."""
        seam = OFFLINE_OP_SEAM if offline else OP_SEAM
        return _OpSpan(self, op_id, self.seams.index(seam))

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, index: int, seam: Seam, fn: Callable) -> Callable:
        tracer = self
        hook = seam.hook or ""
        if seam.is_async:
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                # A coroutine's awaits interleave with other spans on the
                # loop thread, so it stays off the parent stack.
                record = tracer._open(index, push=False)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(record, pushed=False)
            return async_wrapper
        if hook.startswith("counters:"):
            position = int(hook.split(":")[1])

            def counting_wrapper(*args: Any, **kwargs: Any) -> Any:
                from repro.kickstarter.engine import EngineCounters

                counters = (args[position] if len(args) > position
                            else kwargs.get("counters"))
                if counters is None:
                    counters = kwargs["counters"] = EngineCounters()
                before = (counters.edges_relaxed, counters.iterations,
                          counters.vertices_trimmed)
                record = tracer._open(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(record)
                    record[_EXTRA] = (
                        counters.edges_relaxed - before[0],
                        counters.iterations - before[1],
                        counters.vertices_trimmed - before[2],
                    )
            return counting_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = tracer._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook == "bytes_out":
                record[_EXTRA] = len(result)
            elif hook == "bytes_in":
                record[_EXTRA] = len(args[0])
            elif hook == "planned":
                record[_EXTRA] = (result.stabilisations,
                                  result.additions_processed)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every seam; call before any service state is built."""
        # Import the whole program first, so no module can import an
        # already-wrapped name later and keep it after uninstall().
        for name in ("repro", "repro.service", "repro.fleet",
                     "repro.temporal", "repro.livetip", "repro.core",
                     "repro.kickstarter", "repro.evolving.store"):
            importlib.import_module(name)
        for index, seam in enumerate(self.seams):
            if seam in ROOT_SEAMS:
                continue
            module_name, path = seam.target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(index, seam, getattr(module, cls_name),
                                   attr)
            else:
                self._patch_function(index, seam, getattr(module, path))

    def _patch_method(self, index: int, seam: Seam, cls: type,
                      attr: str) -> None:
        raw = inspect.getattr_static(cls, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        wrapped = self._wrap(index, seam, fn)
        replacement = kind(wrapped) if kind else wrapped
        # Aliases (EdgeSet.__or__ = union) share the function object.
        for name, value in list(vars(cls).items()):
            if value is raw:
                self.patches.append((cls, name, raw))
                setattr(cls, name, replacement)

    def _patch_function(self, index: int, seam: Seam, fn: Callable) -> None:
        wrapped = self._wrap(index, seam, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op here and now.

        The twin rounds run seconds apart on a box whose speed drifts by
        more than the tracer costs, so their difference cannot resolve the
        overhead; span count x this cost can.
        """
        def noop() -> None:
            return None

        wrapped = self._wrap(self.seams.index(OP_SEAM), OP_SEAM, noop)
        kept, self.spans = self.spans, []
        try:
            begin = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - begin
            begin = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - begin
        finally:
            self.spans = kept
        return max(traced - bare, 0.0) / calls

    def uninstall(self) -> None:
        """Restore every patched slot to the object it held before."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def write_spans(self, path: str, workload: str,
                    op_types: Dict[int, str]) -> None:
        """Append one JSON object per span: the raw material of a budget."""
        with open(path, "a") as out:
            for r in self.spans:
                seam = self.seams[r[_SEAM]]
                out.write(json.dumps({
                    "workload": workload,
                    "id": r[_SID], "parent": r[_PARENT],
                    "name": seam.target, "layer": seam.layer,
                    "role": r[_ROLE], "thread": r[_THREAD],
                    "op": r[_OP], "op_type": op_types.get(r[_OP]),
                    "start": r[_START], "end": r[_END],
                    "self": r[_END] - r[_START] - r[_CHILD],
                }) + "\n")

    def budget(self, op_types: Dict[int, str]) -> "Budget":
        return Budget(self, op_types)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int, seam: int) -> None:
        self._tracer = tracer
        self._op_id = op_id
        self._seam = seam
        self._record: Optional[list] = None

    def __enter__(self) -> "_OpSpan":
        self._tracer.current_op = self._op_id
        self._record = self._tracer._open(self._seam)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._record is not None
        self._tracer._close(self._record)
        self._tracer.current_op = -1


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Budget:
    """Self time per op, by metric stem and by layer, plus the remainder.

    For each op, the time its client thread spent waiting inside
    ``ServiceClient.request`` is what the server side has to account for.
    Through a router that wait splits into router-thread spans outside any
    forward, the interval the forwards cover, and ``router.residual``; the
    forward interval (with no router: the whole wait) splits into
    router-thread spans inside it, the replica-side spans and
    ``server.residual``.  So per op::

        op latency = sum(self times) + router.residual + server.residual

    exactly, by construction: a seam missing from :data:`SEAMS` shows up
    as a large residual instead of inflating a neighbour.

    Fan-out legs run on three replicas at once, each thread's spans also
    counting the time it waited for the interpreter lock, so their plain
    sum exceeds the wall they jointly occupy.  Replica-side self times of
    an op are therefore scaled by (union of the replica threads' top-level
    span intervals) / (sum of those spans); with one replica and one
    client nothing overlaps and the factor is 1.
    """

    def __init__(self, tracer: Tracer, op_types: Dict[int, str]) -> None:
        self.ops: Dict[str, int] = defaultdict(int)
        self.latency: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, float] = defaultdict(float)
        self.extras: Dict[str, List[Any]] = defaultdict(list)
        #: op type -> row -> summed seconds.
        self.by_key: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.by_layer: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: Spans recorded inside ops (what the tracer cost the timed loop).
        self.spans_in_ops = 0
        #: Set-up, warm-up and tear-down work: key -> [calls, self seconds].
        self.outside: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        per_op: Dict[int, List[list]] = defaultdict(list)
        for record in tracer.spans:
            if record[_OP] in op_types:
                per_op[record[_OP]].append(record)
                self.spans_in_ops += 1
            else:
                entry = self.outside[tracer.seams[record[_SEAM]].key]
                entry[0] += 1
                entry[1] += record[_END] - record[_START] - record[_CHILD]
        for op_id, records in per_op.items():
            self._account(tracer, op_types[op_id], records)

    def _account(self, tracer: Tracer, op_type: str,
                 records: List[list]) -> None:
        forwards = [(r[_START], r[_END]) for r in records
                    if tracer.seams[r[_SEAM]].is_async]

        def inside_forward(r: list) -> bool:
            return any(a <= r[_START] <= b for a, b in forwards)

        waited = 0.0
        router_outside = router_inside = 0.0
        replica: List[Tuple[str, str, float]] = []
        top_level: List[Tuple[float, float]] = []
        for r in records:
            seam = tracer.seams[r[_SEAM]]
            duration = r[_END] - r[_START]
            on_client = r[_ROLE] == "client"
            key = seam.client_key if on_client and seam.client_key \
                else seam.key
            self.calls[key] += 1
            self.durations[key] += duration
            if r[_EXTRA] is not None and not (on_client and seam.client_key):
                self.extras[seam.hook.split(":")[0]].append(r[_EXTRA])
            if seam.is_async:
                continue
            own = duration - r[_CHILD]
            if seam in ROOT_SEAMS:
                self.ops[op_type] += 1
                self.latency[op_type] += duration
            if key == "client.roundtrip":
                waited += own  # what the rows below have to explain
                continue
            layer = "service.client" if key.startswith("client.") \
                else seam.layer
            if r[_ROLE] == "server":
                replica.append((key, layer, own))
                if r[_PARENT] is None:
                    top_level.append((r[_START], r[_END]))
                continue
            if r[_ROLE] == "router":
                if inside_forward(r):
                    router_inside += own
                else:
                    router_outside += own
            self.by_key[op_type][key] += own
            self.by_layer[op_type][layer] += own
        total = sum(end - start for start, end in top_level)
        busy = _union_length(top_level)
        scale = busy / total if total else 1.0
        for key, layer, own in replica:
            self.by_key[op_type][key] += own * scale
            self.by_layer[op_type][layer] += own * scale
        if not waited:
            return  # no service behind this op (offline_range)
        inside = waited
        if forwards:
            inside = _union_length(forwards)
            self.by_key[op_type]["router.residual"] += (
                waited - router_outside - inside)
        self.by_key[op_type]["server.residual"] += (
            inside - router_inside - busy)

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())

    def per_op_ms(self, key: str, op_types: Optional[Iterable[str]] = None,
                  ) -> float:
        """Mean ms of row ``key`` per op (of ``op_types``, default all)."""
        types = list(op_types) if op_types is not None else list(self.ops)
        ops = sum(self.ops.get(t, 0) for t in types)
        if not ops:
            return 0.0
        return 1000.0 * sum(self.by_key[t].get(key, 0.0)
                            for t in types if t in self.by_key) / ops

    def per_call_ms(self, key: str, outside: bool = False) -> float:
        """Mean self ms of row ``key`` per call, inside ops or outside."""
        if outside:
            calls, total = self.outside.get(key, (0, 0.0))
        else:
            calls = self.calls.get(key, 0)
            total = sum(rows.get(key, 0.0) for rows in self.by_key.values())
        return 1000.0 * total / calls if calls else 0.0

    def rows(self, op_type: str) -> List[Tuple[str, float, float]]:
        """``(row, ms per op, share of latency)``, remainder rows last."""
        ops = self.ops[op_type]
        latency = self.latency[op_type]
        rows = sorted(self.by_layer[op_type].items(),
                      key=lambda item: -item[1])
        rows += [(name, self.by_key[op_type][name])
                 for name in ("router.residual", "server.residual")
                 if name in self.by_key[op_type]]
        return [(name, 1000.0 * seconds / ops,
                 seconds / latency if latency else 0.0)
                for name, seconds in rows]
