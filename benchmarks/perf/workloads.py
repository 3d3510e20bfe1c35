"""Seeded op streams, and the ground truth they keep while generating.

A stream is an endless iterator of ``(op, expect)`` pairs.  ``op`` is a
plain JSON-able dict — the only thing the program under test ever sees —
and ``expect`` is what the generator knows the answer must be consistent
with: the tip version and the live edge set at that point of the stream.
The generator applies every write it emits to its own :class:`TipModel`
first, so each update/ingest is valid against the tracked tip and every
read is checkable by the oracle afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.bench.workloads import WorkloadSpec, build_workload
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, decode_edges, encode_edges
from repro.graph.weights import HashWeights
from repro.kickstarter.engine import static_compute

import spec

__all__ = ["WF", "ALGORITHMS", "Expect", "TipModel", "build_evolving",
           "active_sources", "stream", "stream_sha256", "query_source_pool"]

WF = HashWeights(max_weight=64, seed=0)
ALGORITHMS = ("BFS", "SSSP")

#: serve_hot: the full service window two times in three, else a nested
#: one, so the median query is a full-window one and does not sit on the
#: edge between reply sizes; 8 sources x 2 algorithms x 3 ranges = 48
#: keys, far below both caches.
HOT_RANGES = ((0, 15), (0, 15), (0, 15), (0, 15), (8, 15), (15, 15))
HOT_POOL = 8
MIXED_POOL = 32
#: evolve_mixed / fleet_mixed: every block of 20 ops holds exactly this
#: mix (35% window query, 35% tip query, 20% update, 5% ingest, 5%
#: temporal) in a seeded order, so the mix does not vary with the seed.
MIXED_BLOCK = (("query",) * 7 + ("tip_query",) * 7 + ("insert", "delete") * 2
               + ("ingest", "temporal"))
INGEST_ADDS, INGEST_DELETES = 40, 35

Op = Dict[str, Any]


def build_evolving(workload: spec.Workload, seed: int) -> EvolvingGraph:
    """The workload's evolving graph: fixed base, ``seed``-driven updates."""
    return build_workload(
        WorkloadSpec(dataset=workload.dataset,
                     num_snapshots=workload.snapshots,
                     batch_size=75, edge_scale=1.0, seed=seed),
        weight_fn=WF,
    ).evolving


@dataclass(frozen=True)
class Expect:
    """Ground truth at one point of the stream (after the op applied)."""

    tip_version: int
    #: Edge set a read ending at the tip must reflect (pending live-tip
    #: updates included).
    live: EdgeSet
    #: Overlay sequence number after the op (updates only).
    seq: int = 0


class TipModel:
    """Every version's edge set, plus the pending live-tip updates.

    Mirrors the service's deterministic write path: single-edge updates
    stay pending until ``fold_every`` of them fold into one new version
    (none if they cancelled out); an ingest folds pending updates first
    and then lands as the next version.
    """

    def __init__(self, evolving: EvolvingGraph,
                 fold_every: int = spec.FOLD_EVERY) -> None:
        self.num_vertices = evolving.num_vertices
        #: Index = absolute version; append-only.
        self.history: List[EdgeSet] = evolving.all_snapshot_edges()
        self.live = self.history[-1]
        self.pending = 0
        self.seq = 0
        self._fold_every = fold_every

    @property
    def tip_version(self) -> int:
        return len(self.history) - 1

    def expect(self) -> Expect:
        return Expect(self.tip_version, self.live, self.seq)

    def edges_at(self, version: int, expect: Expect) -> EdgeSet:
        """Edges a reply for ``version`` must match, as of ``expect``."""
        return expect.live if version == expect.tip_version \
            else self.history[version]

    def update(self, kind: str, u: int, v: int) -> None:
        edge = EdgeSet.from_pairs([(u, v)])
        batch = (DeltaBatch(additions=edge) if kind == "insert"
                 else DeltaBatch(deletions=edge))
        self.live = batch.apply(self.live, strict=True)
        self.pending += 1
        self.seq += 1
        if self.pending >= self._fold_every:
            self._fold()

    def ingest(self, batch: DeltaBatch) -> None:
        self._fold()
        self.live = batch.apply(self.live, strict=True)
        self.history.append(self.live)

    def _fold(self) -> None:
        if self.pending and self.live != self.history[-1]:
            self.history.append(self.live)
        self.pending = 0


# -- sampling helpers --------------------------------------------------------

def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


class _Zipf:
    """Zipf(1) ranks over a fixed pool."""

    def __init__(self, pool: np.ndarray) -> None:
        self.pool = pool
        weights = 1.0 / np.arange(1, pool.size + 1)
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator) -> int:
        rank = min(int(np.searchsorted(self._cdf, rng.random())),
                   self.pool.size - 1)
        return int(self.pool[rank])


@functools.lru_cache(maxsize=4)  # per graph object; asked for several times a round
def active_sources(evolving: EvolvingGraph) -> np.ndarray:
    """The query sources: vertices that reach the hub in the base snapshot.

    The hub is the maximum out-degree vertex; a vertex that reaches it
    reaches everything the hub does, so every query does a comparable
    amount of work.  Drawing from all vertices instead makes a run's cost
    depend on what the seed happened to pick: an isolated source is a
    trivial answer at a fraction of the cost, and one that joins the large
    component mid-stream costs ten times a normal query.  The base
    snapshot does not depend on the seed, so neither does this set.
    """
    csr = CSRGraph.from_edge_set(evolving.snapshot_edges(0),
                                 evolving.num_vertices)
    hub = int(np.argmax(csr.degrees()))
    hops = static_compute(csr.transpose(), get_algorithm("BFS"), hub).values
    return np.flatnonzero(np.isfinite(hops))


def query_source_pool(workload: str, seed: int,
                      evolving: EvolvingGraph) -> List[int]:
    """The sources a workload's Zipf draws from ([] when uniform)."""
    size = {"serve_hot": HOT_POOL, "evolve_mixed": MIXED_POOL,
            "fleet_mixed": MIXED_POOL}.get(workload)
    if size is None:
        return []
    # fleet_mixed replays evolve_mixed's stream, pool included.
    name = "evolve_mixed" if workload == "fleet_mixed" else workload
    rng = _rng(seed, name + ":pool")
    return rng.choice(active_sources(evolving), size=size,
                      replace=False).tolist()


def _fresh_edges(rng: np.random.Generator, live: EdgeSet, n: int,
                 count: int) -> np.ndarray:
    """``count`` distinct edge codes absent from ``live``, no self loops."""
    found = np.empty(0, dtype=np.int64)
    while found.size < count:
        src = rng.integers(0, n, size=2 * count, dtype=np.int64)
        dst = rng.integers(0, n, size=2 * count, dtype=np.int64)
        codes = encode_edges(src[src != dst], dst[src != dst])
        codes = codes[~live.contains_codes(codes)]
        found = np.unique(np.concatenate([found, codes]))
    return rng.permutation(found)[:count]


def _pairs(codes: np.ndarray) -> List[List[int]]:
    src, dst = decode_edges(codes)
    return [[int(u), int(v)] for u, v in zip(src.tolist(), dst.tolist())]


# -- the five streams ----------------------------------------------------------

def _offline_range(seed: int, evolving: EvolvingGraph,
                   model: TipModel) -> Iterator[Tuple[Op, Expect]]:
    rng = _rng(seed, "offline_range")
    sources = active_sources(evolving)
    expect = model.expect()
    yield {"type": "decompose"}, expect
    while True:
        # BFS : SSSP = 2 : 1, so the median evaluation is a BFS one and
        # does not sit in the gap between the two algorithms' costs (SSSP
        # costs ~1.3x BFS, and its slowest sources twice that).
        for algorithm in ("BFS", "SSSP", "BFS"):
            yield {"type": "query", "algorithm": algorithm,
                   "source": int(rng.choice(sources))}, expect


def _serve_cold(seed: int, evolving: EvolvingGraph,
                model: TipModel) -> Iterator[Tuple[Op, Expect]]:
    rng = _rng(seed, "serve_cold")
    sources = active_sources(evolving)
    expect = model.expect()
    while True:  # one pass is 2 x |sources| distinct keys; a run uses ~5%
        for key in rng.permutation(2 * sources.size).tolist():
            yield {"type": "query", "algorithm": ALGORITHMS[key % 2],
                   "source": int(sources[key // 2])}, expect


def _serve_hot(seed: int, evolving: EvolvingGraph,
               model: TipModel) -> Iterator[Tuple[Op, Expect]]:
    rng = _rng(seed, "serve_hot")
    expect = model.expect()
    zipf = _Zipf(np.asarray(query_source_pool("serve_hot", seed, evolving)))
    while True:
        first, last = HOT_RANGES[int(rng.integers(0, len(HOT_RANGES)))]
        yield {"type": "query",
               "algorithm": ALGORITHMS[int(rng.integers(0, 2))],
               "source": zipf.draw(rng),
               "first": first, "last": last}, expect


def _evolve_mixed(seed: int, evolving: EvolvingGraph,
                  model: TipModel) -> Iterator[Tuple[Op, Expect]]:
    rng = _rng(seed, "evolve_mixed")
    n = model.num_vertices
    zipf = _Zipf(np.asarray(query_source_pool("evolve_mixed", seed, evolving)))
    while True:
        for kind in rng.permutation(MIXED_BLOCK).tolist():
            yield _mixed_op(kind, rng, zipf, n, model), model.expect()


def _mixed_op(kind: str, rng: np.random.Generator, zipf: _Zipf, n: int,
              model: TipModel) -> Op:
    """One op of the mixed stream; a write is applied to ``model`` here."""
    if kind in ("query", "tip_query", "temporal"):
        op: Op = {"type": kind,
                  "algorithm": ALGORITHMS[int(rng.integers(0, 2))],
                  "source": zipf.draw(rng)}
        if kind == "tip_query":
            op["first"] = op["last"] = model.tip_version
        elif kind == "temporal":
            op["queries"] = [
                {"mode": "timeline", "vertex": int(rng.integers(0, n))},
                {"mode": "aggregate", "agg": "changed_count"},
            ]
        return op
    if kind == "ingest":
        deletions = model.live.codes[
            rng.choice(len(model.live), size=INGEST_DELETES, replace=False)]
        additions = _fresh_edges(rng, model.live, n, INGEST_ADDS)
        model.ingest(DeltaBatch(additions=EdgeSet(additions),
                                deletions=EdgeSet(deletions)))
        return {"type": "ingest", "additions": _pairs(additions),
                "deletions": _pairs(deletions)}
    if kind == "insert":
        code = _fresh_edges(rng, model.live, n, 1)
    else:
        code = model.live.codes[[int(rng.integers(0, len(model.live)))]]
    edge = _pairs(code)[0]
    model.update(kind, *edge)
    return {"type": "update", "kind": kind, "edge": edge}


_STREAMS = {
    "offline_range": _offline_range,
    "serve_cold": _serve_cold,
    "serve_hot": _serve_hot,
    "evolve_mixed": _evolve_mixed,
    # Same generator, same seed: the difference to evolve_mixed is the fleet.
    "fleet_mixed": _evolve_mixed,
}


def stream(workload: str, seed: int, evolving: EvolvingGraph,
           model: TipModel) -> Iterator[Tuple[Op, Expect]]:
    """The workload's endless op stream; writes are applied to ``model``."""
    return _STREAMS[workload](seed, evolving, model)


def stream_sha256(workload: str, seed: int,
                  evolving: Optional[EvolvingGraph] = None,
                  ops: int = 64) -> str:
    """Digest of the stream's first ``ops`` ops (canonical JSON lines)."""
    if evolving is None:
        evolving = build_evolving(spec.WORKLOAD_BY_NAME[workload], seed)
    digest = hashlib.sha256()
    source = stream(workload, seed, evolving, TipModel(evolving))
    for _ in range(ops):
        op, _expect = next(source)
        digest.update(json.dumps(op, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()
