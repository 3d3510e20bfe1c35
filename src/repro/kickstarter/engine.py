"""Core push-based computation engine (KickStarter-style).

The engine maintains one value per vertex and propagates improvements
along out-edges until a fixpoint.  Every vectorised step — a push
round, a streamed dense round, the seeding of a streamed batch
(:func:`seed_edges`) — is *filter, then reduce*: it keeps only the
edges whose proposal is strictly better than the target's current
value, scatter-reduces that subset, and reads the changed vertices off
a boolean mask.  That is the same fixpoint, parents and counters as
scattering every proposal — which vertices improve, and to what, is
decided by the improving proposals alone — but in a converging query
the subset is small, and a NaN proposal, never *better*, is never
written.

Two execution modes, matching the scheduler policy of §4.3 of the paper:

* **sync** — vectorised rounds: gather all out-edges of the frontier
  and :func:`relax` them.  Updates take effect in the next round.
* **async** — a Python-level worklist where an updated value is visible
  immediately.  It wins only where the fixed cost of a vectorised round
  (~25 NumPy calls) exceeds a few Python-level vertex visits.

``mode="auto"`` switches between them at :data:`ASYNC_THRESHOLD` and is
the default used by all evaluators.

A sync round on a :class:`~repro.graph.csr.CSRGraph` whose frontier
owns more than :data:`DENSE_SHARE` of the edges is a **dense round**
(the direction switch of Ligra-style engines): every edge is relaxed.
On a CSR that carries its in-edge view
(:meth:`~repro.graph.csr.CSRGraph.index_in_edges` — the common graph
of a decomposition built from a history) it is a *pull*: each target's
best proposal is one segmented ``fmin``/``fmax`` reduction over its
in-edges, and the improved cells are written directly (about three
edge-length passes).  On any other CSR it is a *stream*: the edges in
CSR order, origin values from one ``repeat``, through the filter and
scatter-reduce above (about seven).  Either is exact under the
precondition every fixpoint here starts from — *no vertex outside the
frontier has an improving out-edge* — because then no extra edge
proposes anything better, and the improving edges are the ones the
gathered round would have found, in the same order for a sorted
frontier.  Values, parents, ``vertices_updated`` and ``iterations``
are therefore those of the gathered round, and the pull's those of the
stream; only ``edges_relaxed`` grows, since a dense round counts every
edge — which is why a BFS can report more relaxed edges than the graph
has.  The root of a walk (the common graph) and any other convergence
on a plain CSR take it; stacked sweeps, overlays and the mutable graph
never do.  A round on a stack whose frontier owns more than
:data:`PIECE_EDGES` edges is relaxed in pieces of whole rows instead,
which bounds a sweep's transient memory and changes nothing else.

Optionally the engine tracks, per vertex, the *parent* — the origin of
the edge whose proposal produced the vertex's current value.  Parents
form the dependence tree that KickStarter's deletion handling trims
(:mod:`repro.kickstarter.deletion`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import EngineError
from repro.graph.csr import CSRGraph, InEdges
from repro.graph.stacked import StackedGraph
from repro.utils import expand_ranges

__all__ = [
    "GraphLike",
    "EngineCounters",
    "VertexState",
    "relax",
    "stabilise",
    "push_until_stable",
    "static_compute",
    "seed_edges",
    "incremental_additions",
    "ASYNC_THRESHOLD",
    "DENSE_SHARE",
    "PIECE_EDGES",
]

#: Frontier size below which ``mode="auto"`` uses the async worklist:
#: the measured crossover.  A vectorised round costs ~25 µs whatever the
#: frontier, an async vertex visit ~7 µs (DL/50 and LJ/16 overlays), so
#: the worklist wins for 1–3 vertices and loses from 4 on.
ASYNC_THRESHOLD = 4

#: Share of a :class:`CSRGraph`'s edges above which a sync round relaxes
#: every edge rather than gathering the frontier's: the measured
#: crossover.  A gathered edge pays about eleven edge-length passes
#: (slot expansion, origin repeat, two slot gathers, ...), a streamed
#: one about seven and a pulled one about three, so a round that gathers
#: a large share of the graph is cheaper dense.  Static BFS/SSSP on the
#: DL/50 and LJ/16 common graphs time within noise from 0.2 to 0.5
#: streamed and from 0.2 to 0.4 pulled.
DENSE_SHARE = 0.4

#: Out-edges above which a gathered round on a
#: :class:`~repro.graph.stacked.StackedGraph` is relaxed in pieces of
#: whole rows: no edge crosses rows, so the pieces are independent and
#: the round is exact, but its transient arrays (~ten per gathered edge)
#: are bounded by a piece, not by the sweep's widest frontier.  The
#: measured cap: on the DL/50 walk, 2¹⁵ to 2¹⁸ time the same within
#: noise, and the widest transient grows from 2¹⁷ on.
PIECE_EDGES = 1 << 16

_NO_VERTICES = np.empty(0, dtype=np.int64)
_NO_VERTICES.setflags(write=False)


class GraphLike(Protocol):
    """What the engine needs from a graph representation."""

    num_vertices: int

    def gather(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(sources, targets, weights)`` of the frontier's out-edges."""

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of one vertex's out-edges."""


@dataclass
class EngineCounters:
    """Work counters, used for shape checks that are timing-independent."""

    edges_relaxed: int = 0
    vertices_updated: int = 0
    iterations: int = 0
    vertices_trimmed: int = 0
    trim_rounds: int = 0

    def reset(self) -> None:
        self.edges_relaxed = 0
        self.vertices_updated = 0
        self.iterations = 0
        self.vertices_trimmed = 0
        self.trim_rounds = 0


@dataclass
class VertexState:
    """Query state: per-vertex values plus (optional) dependence parents.

    ``parents[v]`` is the origin vertex of the edge that produced
    ``values[v]``, or ``-1`` when the value is intrinsic (source, or
    still at the algorithm's worst value).
    """

    values: np.ndarray
    parents: Optional[np.ndarray] = None
    source: int = 0

    @classmethod
    def fresh(
        cls,
        alg: MonotonicAlgorithm,
        num_vertices: int,
        source: int,
        track_parents: bool = False,
    ) -> "VertexState":
        values = alg.initial_values(num_vertices, source)
        parents = np.full(num_vertices, -1, dtype=np.int64) if track_parents else None
        return cls(values=values, parents=parents, source=source)

    def copy(self) -> "VertexState":
        return VertexState(
            values=self.values.copy(),
            parents=None if self.parents is None else self.parents.copy(),
            source=self.source,
        )


def _distinct(vertices: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``vertices`` sorted and duplicate-free, through an all-false
    ``mask`` that is handed back all-false (only the set cells are
    cleared, so the cost does not grow with a sparse frontier's graph)."""
    mask[vertices] = True
    distinct = mask.nonzero()[0]
    mask[distinct] = False
    return distinct


def relax(
    alg: MonotonicAlgorithm,
    state: VertexState,
    origins: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    counters: Optional[EngineCounters],
    mask: np.ndarray,
) -> np.ndarray:
    """Run parallel edges through the edge function once; returns the
    vertices that improved, sorted and duplicate-free.

    ``mask`` is an all-false boolean scratch array over the vertices
    (see :func:`_distinct`), allocated once per fixpoint by the caller.
    """
    if counters is not None:
        counters.edges_relaxed += int(origins.size)
    proposals = alg.proposals(state.values[origins], weights)
    return _reduce_improving(alg, state, targets, proposals, origins.take,
                             counters, mask)


def _dense_round(
    graph: CSRGraph,
    alg: MonotonicAlgorithm,
    state: VertexState,
    counters: Optional[EngineCounters],
    mask: np.ndarray,
) -> np.ndarray:
    """:func:`relax` over every edge of ``graph``: a pull over its
    in-edge view when it carries one (:func:`_pull`), else a stream in
    CSR order — origin values out of one ``repeat``, targets and weights
    the stored arrays, and an origin looked up only for a winning edge
    whose parent is tracked."""
    if counters is not None:
        counters.edges_relaxed += graph.num_edges
    if graph.in_edges is not None:
        return _pull(graph.in_edges, alg, state, counters)
    indptr = graph.indptr
    proposals = alg.proposals(np.repeat(state.values, np.diff(indptr)),
                              graph.weights)
    return _reduce_improving(
        alg, state, graph.indices, proposals,
        lambda slots: np.searchsorted(indptr, slots, "right") - 1,
        counters, mask)


def _pull(
    view: InEdges,
    alg: MonotonicAlgorithm,
    state: VertexState,
    counters: Optional[EngineCounters],
) -> np.ndarray:
    """The dense round as a pull: each target's best proposal by one
    segmented reduction over its in-edges, written where it beats the
    target's value.  The reduction skips NaN, so a NaN proposal is never
    written, and the parent is the target's last winning in-edge — in CSR
    order, the stream's last-edge-wins."""
    values = state.values
    proposals = alg.proposals(values.take(view.origins), view.weights)
    best = alg.reduce_segments(proposals, view.bounds[:-1])
    improved = alg.better(best, values.take(view.targets)).nonzero()[0]
    if improved.size == 0:
        return _NO_VERTICES
    changed = view.targets[improved]
    best = best[improved]
    values[changed] = best
    if state.parents is not None:
        starts = view.bounds[improved]
        lengths = view.bounds[improved + 1] - starts
        slots = expand_ranges(starts, lengths)
        owner = np.repeat(np.arange(improved.size), lengths)
        winners = (proposals[slots] == best[owner]).nonzero()[0]
        state.parents[changed[owner[winners]]] = view.origins[slots[winners]]
    if counters is not None:
        counters.vertices_updated += int(changed.size)
    return changed


def _reduce_improving(
    alg: MonotonicAlgorithm,
    state: VertexState,
    targets: np.ndarray,
    proposals: np.ndarray,
    origin_of: Callable[[np.ndarray], np.ndarray],
    counters: Optional[EngineCounters],
    mask: np.ndarray,
) -> np.ndarray:
    """The tail of a relax step: keep the proposals strictly better than
    their target's value, reduce those, record the winners' parents
    (``origin_of`` maps edge positions to origin vertices) and return the
    improved vertices, sorted and duplicate-free."""
    values = state.values
    improving = alg.better(proposals, values[targets]).nonzero()[0]
    if improving.size == 0:
        return _NO_VERTICES
    targets = targets[improving]
    proposals = proposals[improving]
    alg.reduce_at(values, targets, proposals)
    if state.parents is not None:
        # An improving edge is a winner if its proposal is its target's
        # new value.  Ties are broken arbitrarily (later edges overwrite
        # earlier ones).
        winners = proposals == values[targets]
        state.parents[targets[winners]] = origin_of(improving[winners])
    changed = _distinct(targets, mask)
    if counters is not None:
        counters.vertices_updated += int(changed.size)
    return changed


def _async_drain(
    graph: GraphLike,
    alg: MonotonicAlgorithm,
    state: VertexState,
    frontier: np.ndarray,
    counters: Optional[EngineCounters],
    spill_threshold: int,
) -> np.ndarray:
    """Asynchronous worklist execution.

    Returns an empty array on convergence, or the remaining worklist —
    duplicate-free, in no particular order — if it grew past
    ``spill_threshold`` (the caller then switches to sync mode — the
    §4.3 policy in reverse, protecting against cascades).
    """
    values = state.values
    parents = state.parents
    work = deque(int(v) for v in frontier)
    queued = set(work)
    while work:
        if len(work) > spill_threshold:
            return np.fromiter(queued, dtype=np.int64)
        u = work.popleft()
        queued.discard(u)
        targets, weights = graph.neighbors(u)
        if counters is not None:
            counters.iterations += 1
        if targets.size == 0:
            continue
        proposals = alg.proposals(np.full(targets.shape, values[u]), weights)
        improved = alg.better(proposals, values[targets])
        if counters is not None:
            counters.edges_relaxed += int(targets.size)
        if not improved.any():
            continue
        upd_targets = targets[improved]
        upd_values = proposals[improved]
        # A vertex may appear twice (parallel edges across components);
        # reduce within the update before writing.
        for v, val in zip(upd_targets.tolist(), upd_values.tolist()):
            if alg.better(val, values[v]):
                values[v] = val
                if parents is not None:
                    parents[v] = u
                if v not in queued:
                    queued.add(v)
                    work.append(v)
                if counters is not None:
                    counters.vertices_updated += 1
    return _NO_VERTICES


def stabilise(
    graph: GraphLike,
    alg: MonotonicAlgorithm,
    state: VertexState,
    frontier: np.ndarray,
    counters: Optional[EngineCounters] = None,
    mode: str = "auto",
    async_threshold: int = ASYNC_THRESHOLD,
) -> None:
    """:func:`push_until_stable` for a frontier that is already
    duplicate-free, in any order — what :func:`relax` and
    :func:`seed_edges` return (sorted), and what an async spill hands
    back (unsorted).  No ``gather`` may depend on the order.

    Precondition: no vertex outside ``frontier`` has an improving
    out-edge (a proposal strictly better than its target's value).  A
    sync round on a :class:`CSRGraph` whose frontier owns more than
    :data:`DENSE_SHARE` of the edges relaxes every edge instead
    (:func:`_dense_round`); the precondition is what makes that round
    improve exactly the vertices a gathered round would.  A sync round
    on a :class:`StackedGraph` whose frontier owns more than
    :data:`PIECE_EDGES` edges is relaxed in pieces of whole rows.
    """
    if mode not in ("sync", "async", "auto"):
        raise EngineError(f"unknown mode {mode!r}")
    mask = np.zeros(graph.num_vertices, dtype=bool)
    csr = graph if isinstance(graph, CSRGraph) else None
    stack = graph if isinstance(graph, StackedGraph) else None
    while frontier.size:
        use_async = mode == "async" or (mode == "auto" and frontier.size < async_threshold)
        if use_async:
            spill = np.inf if mode == "async" else 8 * async_threshold
            frontier = _async_drain(graph, alg, state, frontier, counters, spill)
            continue
        if counters is not None:
            counters.iterations += 1
        if csr is not None and _out_edges(csr, frontier) > DENSE_SHARE * csr.num_edges:
            frontier = _dense_round(csr, alg, state, counters, mask)
        elif stack is not None and frontier.size * stack.max_degree > PIECE_EDGES:
            changed = [relax(alg, state, *edges, counters, mask)
                       for edges in stack.gathers(frontier, PIECE_EDGES)]
            frontier = changed[0] if len(changed) == 1 else np.concatenate(changed)
        else:
            frontier = relax(alg, state, *graph.gather(frontier), counters, mask)


def _out_edges(graph: CSRGraph, frontier: np.ndarray) -> int:
    """How many out-edges the vertices of ``frontier`` own."""
    indptr = graph.indptr
    return int((indptr[1:][frontier] - indptr[frontier]).sum())


def push_until_stable(
    graph: GraphLike,
    alg: MonotonicAlgorithm,
    state: VertexState,
    frontier: np.ndarray,
    counters: Optional[EngineCounters] = None,
    mode: str = "auto",
    async_threshold: int = ASYNC_THRESHOLD,
) -> None:
    """Propagate improvements from ``frontier`` until a fixpoint.

    ``mode`` is ``"sync"``, ``"async"`` or ``"auto"`` (switch by
    frontier size, per the paper's scheduler design).  Precondition, as
    for :func:`stabilise`: no vertex outside ``frontier`` has an
    improving out-edge.
    """
    frontier = _distinct(np.asarray(frontier, dtype=np.int64),
                         np.zeros(graph.num_vertices, dtype=bool))
    stabilise(graph, alg, state, frontier, counters, mode, async_threshold)


def static_compute(
    graph: GraphLike,
    alg: MonotonicAlgorithm,
    source: int,
    track_parents: bool = False,
    counters: Optional[EngineCounters] = None,
    mode: str = "sync",
) -> VertexState:
    """Evaluate a query from scratch on ``graph``."""
    with obs.phase_span("kernel", "static_compute"):
        state = VertexState.fresh(alg, graph.num_vertices, source,
                                  track_parents)
        stabilise(graph, alg, state, np.asarray([source], dtype=np.int64),
                  counters, mode)
        return state


def seed_edges(
    alg: MonotonicAlgorithm,
    state: VertexState,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    counters: Optional[EngineCounters] = None,
) -> np.ndarray:
    """Apply a set of edges once, returning the vertices that improved
    (sorted, duplicate-free).

    This is lines 4–9 of Algorithm 2 in the paper: each streamed edge is
    run through the edge function; destinations that improve are
    scheduled.
    """
    return relax(
        alg, state, np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(weights, dtype=np.float64), counters,
        np.zeros(state.values.size, dtype=bool),
    )


def incremental_additions(
    graph: GraphLike,
    alg: MonotonicAlgorithm,
    state: VertexState,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    counters: Optional[EngineCounters] = None,
    mode: str = "auto",
) -> None:
    """Incrementally incorporate added edges into converged query state.

    ``graph`` must already contain the added edges (it is the graph
    *after* the batch).  For monotonic algorithms this is exact: an
    addition can only improve values, and improvements propagate
    forward.
    """
    with obs.phase_span("kernel", "incremental_additions"):
        frontier = seed_edges(alg, state, sources, targets, weights,
                              counters=counters)
        stabilise(graph, alg, state, frontier, counters, mode)
