"""Service state: a store, its live decomposition, and the result cache.

:class:`ServiceState` is the single mutable object behind the server.
It owns:

* the :class:`~repro.evolving.store.SnapshotStore` (durability);
* a :class:`~repro.core.common.CommonGraphDecomposition` over the
  current window, maintained **incrementally**: an ingested batch
  advances the decomposition by what the batch touches — one
  :meth:`CommonGraphDecomposition.extended` call appends the snapshot
  and, on a full window, drops the oldest — in O(batch), never by
  recomputing from the snapshots;
* the **epoch** counter: bumped on every ingest/slide, embedded in
  every answer key, so no answer can outlive the decomposition that
  produced it;
* the result cache (full answers, each a
  :class:`~repro.service.cache.CachedRange`), the only store of
  answers and the one bound on what the service keeps.  A miss reuses
  the snapshots that live entries of the same ``(algorithm, source,
  epoch)`` already answer (:meth:`ServiceState._held_snapshots`, counted
  as ``status()["node_cache"]``) and hands them to the
  :class:`~repro.service.planner.MemoizingPlanner`, which walks only
  the rest;
* per ``(algorithm, source)``, in the same cache, the query's **root**
  — its values on the window's common graph, where every walk starts —
  tagged with its epoch, and the common graph's moves of the last
  :data:`ROOT_MAX_AGE` appends: a miss after an ingest derives its root
  from the kept one along those moves (:meth:`ServiceState._root`)
  instead of converging it afresh.

Versions are *absolute*: snapshot numbers keep counting up as batches
arrive, even after old snapshots slide out of the window.  A query for
a version outside the window is refused with a clear error rather than
silently answered from the wrong graph.

Thread model: everything a read needs is one immutable value,
``ServiceState.published``, the live-tip overlay anchored on its own
decomposition.  A writer (an append's extension, an update, a fold's
collapse) builds the next value under one plain writer lock and
publishes it with one attribute store; a read loads the value once and
takes no state or overlay lock, so it never waits for an ingest or a
fold in flight.  Appends have one more lock, taken first: an ingest
appends its batch and extends the window by it, and a fold seals the
live-tip log and appends or collapses it, each in one step under the
append lock, so in-process appends reach the store and the window in
one order.  (The decomposition's lazy memos are
internally locked and an extension reads neither, so sharing one
decomposition between in-flight queries and an extension is safe.)
A read is thus a pure function of its view — the answer is the unique
fixpoint on those snapshots — so there is one read path: running it
again could not heal a failure, and the server never retries one.

Failure model: the window is extended *after* an append is durable, so
the state must never silently fall behind the store.  If the
incremental extension fails, or another process appended since the
state's last append, ``_apply_append`` resynchronises with a full
rebuild from the store (counted in ``resyncs``); if even that fails,
the state is *poisoned* — queries raise
:class:`~repro.errors.ServiceError` loudly until a later append
rebuilds successfully — rather than answering from a graph that no
longer matches the store.
"""

from __future__ import annotations

import threading
import time
from dataclasses import InitVar, dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import planned_graphs
from repro.core.results import CompactRange
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.evolving.delta import DeltaBatch
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet, decode_edges
from repro.graph.weights import UnitWeights, WeightFn
from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import VertexState, incremental_additions
from repro.livetip import Compactor, LiveTipOverlay
from repro.livetip.overlay import TipCapture
from repro.service.cache import CacheStats, CachedRange, LRUCache
from repro.service.planner import MemoizingPlanner, SnapshotRef
from repro.service.status import Sizes, history_sizes, store_summary
from repro.temporal.engine import TemporalEngine
from repro.temporal.plan import TemporalSpec
from repro.temporal.timeline import TemporalAnswer

__all__ = ["QueryAnswer", "ServiceState"]


@dataclass
class QueryAnswer:
    """A served query: values plus provenance for the response payload.

    A result-cache hit carries its :class:`CachedRange` as ``entry`` and
    expands ``values`` from it only when they are read (the live-tip
    patch, a temporal range, an in-process caller).  Assigning
    ``values`` detaches the entry (and a miss's ``compact``); changing a
    row in place does not, and the reply would still ship the entry's
    bytes — so rows read from an answer must not be changed in place.
    """

    algorithm: str
    source: int
    first: int
    last: int
    epoch: int
    values: InitVar[Optional[List[np.ndarray]]] = None
    from_cache: bool = False
    node_hits: int = 0
    node_misses: int = 0
    additions_processed: int = 0
    #: Set when the tip snapshot's values were patched from the
    #: live-tip overlay: the overlay sequence number the patch reflects.
    livetip_seq: Optional[int] = None
    entry: Optional[CachedRange] = field(default=None, init=False)
    #: An unpatched miss's rows as its entry holds them: not compacted again.
    compact: Optional[CompactRange] = field(default=None, init=False, repr=False)
    _rows: Optional[List[np.ndarray]] = field(default=None, init=False,
                                              repr=False)

    def __post_init__(self, values: Optional[List[np.ndarray]]) -> None:
        self._rows = values

    def key(self) -> Tuple[str, int, int, int, int]:
        return (self.algorithm, self.source, self.first, self.last,
                self.epoch)

    def _get_values(self) -> List[np.ndarray]:
        if self._rows is None:
            self._rows = [] if self.entry is None else self.entry.rows()
        return self._rows

    def _set_values(self, rows: List[np.ndarray]) -> None:
        self._rows = rows
        self.entry = self.compact = None


# Set after the class body: a property there would stand in as the
# default of the ``values`` constructor argument.
QueryAnswer.values = property(  # type: ignore[assignment]
    QueryAnswer._get_values, QueryAnswer._set_values)


def _hit(answer: QueryAnswer, entry: CachedRange) -> QueryAnswer:
    """``answer`` served by the result-cache ``entry``."""
    answer.entry = entry
    answer.from_cache = True
    obs.annotate(result_cache="hit")
    return answer


class _RootKey(NamedTuple):
    """The result-cache key of a query's root, never equal to an answer's
    five-field :meth:`QueryAnswer.key`."""

    algorithm: str
    source: int


@dataclass(frozen=True)
class _Root:
    """A query's values on the common graph of one epoch's window."""

    epoch: int
    values: np.ndarray


#: Appends a root may lag its view by and still be derived (older ones
#: are converged afresh); the moves of as many appends are kept.  On
#: LJ/16 with 40 + 35-edge batches (30 sources, 2-vCPU box) a derivation
#: against a static convergence costs, for BFS and SSSP together, 1.87 /
#: 4.82 ms two appends back, 3.22 / 4.52 ms eight back and 5.03 / 4.71
#: ms sixteen back, as the net departures and the region they trim
#: grow: the mix breaks even at about 14.  The cap stops short of it
#: because BFS alone breaks even at about 5, and from 12 appends on one
#: departed edge near the source could flood Viterbi's trim (3 180 of
#: 4 096 vertices, 12.4 ms against 5.5 ms).
ROOT_MAX_AGE = 8

#: One append's moves of the common graph: ``(departed, rejoined)``.
_Moves = Tuple[EdgeSet, EdgeSet]


def _net_moves(steps: Sequence[_Moves]) -> _Moves:
    """Consecutive appends' moves as one: the edges the common graph lost
    and gained between the first's parent and the last.

    An edge's moves alternate — only a common edge departs, only another
    one rejoins — so it changed sides iff it moved an odd number of
    times, in the direction of its first move.  One sort of all moves;
    folding the steps pairwise by set algebra cost 0.77 ms at eight
    appends, this 0.11 ms.
    """
    if len(steps) == 1:
        return steps[0]
    codes = np.concatenate([moved.codes for step in steps for moved in step])
    rejoins = np.concatenate([np.full(len(moved), side, dtype=bool)
                              for step in steps
                              for side, moved in enumerate(step)])
    edges, first, count = np.unique(codes, return_index=True,
                                    return_counts=True)
    changed = count % 2 == 1
    back = rejoins[first]
    return (EdgeSet(edges[changed & ~back], _trusted=True),
            EdgeSet(edges[changed & back], _trusted=True))


@dataclass(frozen=True)
class _Published:
    """Everything a read needs, as one value that is never changed: a
    read that loads it once sees one instant, its overlay anchored on
    its own decomposition, whatever a writer publishes meanwhile."""

    decomposition: CommonGraphDecomposition
    #: Absolute version number of the window's first snapshot.
    base: int
    #: The store's base and batch sizes, for the status summary.
    sizes: Sizes
    #: Ingest timestamps *as observed by this service instance*:
    #: versions already in the store at startup are stamped at init,
    #: later versions as their batch lands.  The temporal
    #: ``as_of_timestamp`` queries resolve against this map; the store
    #: itself records no timestamps, so the semantics are deliberately
    #: instance-local (documented in docs/temporal.md).
    version_times: Mapping[int, float]
    #: Bumped on every ingest/slide; embedded in every answer key.
    epoch: int = 0
    #: Epoch -> the moves of the append that made it, for the last
    #: :data:`ROOT_MAX_AGE` appends; a root is derived across them.
    moves: Mapping[int, _Moves] = field(default_factory=dict)
    #: Recoveries from a failed incremental extension (full rebuilds).
    resyncs: int = 0
    #: Set when the state could not be resynchronised with the store;
    #: reads fail loudly rather than serve a stale graph.
    poisoned: Optional[BaseException] = None
    #: The live-tip overlay, anchored on ``decomposition``; ``None``
    #: until the first update.
    livetip: Optional[LiveTipOverlay] = None

    def _with(self, **fields: Any) -> "_Published":
        """This value with ``fields`` replaced.  Every update makes one,
        and ``dataclasses.replace`` costs about seven times as much."""
        value = object.__new__(_Published)
        value.__dict__.update(self.__dict__, **fields)
        return value

    @property
    def latest(self) -> int:
        """Absolute version number of the window's last snapshot."""
        return self.base + self.decomposition.num_snapshots - 1

    def serviceable(self) -> "_Published":
        """This value, or a loud refusal if the state left the store."""
        if self.poisoned is not None:
            raise ServiceError(
                "service state out of sync with the store "
                f"(last resync failed: {self.poisoned!r}); "
                "refusing to answer from a stale graph"
            )
        return self

    def resolve_range(self, first: Optional[int],
                      last: Optional[int]) -> Tuple[int, int]:
        """Default ``first``/``last`` to the window and validate them."""
        first = self.base if first is None else first
        last = self.latest if last is None else last
        if not self.base <= first <= last <= self.latest:
            # ProtocolError (a ServiceError subclass): the request named
            # versions this window cannot answer — a client mistake, not
            # a server fault, so the client sees a clean payload.
            raise ProtocolError(
                f"version range [{first}, {last}] outside the window "
                f"[{self.base}, {self.latest}]"
            )
        return first, last


@dataclass(frozen=True)
class _ReadView:
    """One read: what it asks and the published value it answers from."""

    algorithm: MonotonicAlgorithm
    source: int
    published: _Published
    #: The live-tip overlay's capture for this (algorithm, source), or
    #: ``None`` when the overlay is clean or absent.
    patch: Optional[TipCapture]

    def patch_tip(self, last: int,
                  values: List[np.ndarray]) -> List[np.ndarray]:
        """``values`` with the tip column taken from the overlay.

        The overlay starts from ``values[-1]``, the anchored tip's
        converged column, and repairs it by the logged edges.
        """
        if self.patch is None or last != self.published.latest:
            return values
        return [*values[:-1], self.patch.resolve(values[-1])]


class ServiceState:
    """Mutable service core: ingestion, window, epochs, caches, queries."""

    def __init__(
        self,
        store: SnapshotStore,
        weight_fn: Optional[WeightFn] = None,
        window: Optional[int] = None,
        result_cache_entries: int = 256,
        time_fn: Callable[[], float] = time.time,
        livetip: bool = True,
        livetip_max_updates: int = 64,
    ) -> None:
        if window is not None and window < 1:
            raise ServiceError("window must be >= 1 snapshot")
        if livetip_max_updates < 1:
            # The compactor is built on the first update; refuse now.
            raise ServiceError("max_updates must be >= 1")
        self.store = store
        self.weight_fn: WeightFn = (
            weight_fn if weight_fn is not None else UnitWeights()
        )
        self.window = window
        # Serialises the appenders (an ingest, a fold): held across a
        # store append and the extension that publishes it, and across a
        # fold's seal and its append or collapse.  Taken before
        # ``_writer``, never after it.
        self._appending = threading.Lock()
        # Serialises the writers (an append's extension, an update, a
        # fold's collapse); held only to build and store the next
        # published value, never across a store append.  Reads take no
        # lock: they load ``published`` once.
        self._writer = threading.Lock()
        # Entries are base + sparse Δ, never k dense vectors or aliases;
        # the planner builds them, reading the snapshots they hold.
        self.result_cache = LRUCache(result_cache_entries)
        #: Snapshot lookups of result-cache misses: a hit is a snapshot
        #: a live entry already holds.  Counted under ``_stats_lock``,
        #: sampled without it (like the cache's own stats).
        self.snapshot_stats = CacheStats()
        self._stats_lock = threading.Lock()
        self.planner = MemoizingPlanner(self.weight_fn)
        self._time_fn = time_fn
        decomposition, base, sizes = self._state_from_store()
        now = time_fn()
        self.published = _Published(
            decomposition, base, sizes,
            dict.fromkeys(range(base, base + decomposition.num_snapshots),
                          now),
        )
        #: Live-tip overlay: sub-batch single-edge updates against
        #: the tip, compacted into real batches on a threshold.  The
        #: overlay and its compactor are created lazily on the first
        #: update so batch-only deployments pay nothing; with
        #: ``livetip=False`` updates are refused.
        self.livetip_enabled = livetip
        self._livetip_max_updates = livetip_max_updates
        self._compactor: Optional[Compactor] = None

    def _state_from_store(
            self) -> Tuple[CommonGraphDecomposition, int, Sizes]:
        """Rebuild ``(decomposition, base_version, sizes)`` from the store."""
        evolving = self.store.load()
        decomposition = CommonGraphDecomposition.from_evolving(evolving)
        base = 0
        n = decomposition.num_snapshots
        if self.window is not None and n > self.window:
            base = n - self.window
            decomposition = decomposition.restrict(base, n - 1)
        return decomposition, base, history_sizes(evolving)

    # -- shape ----------------------------------------------------------------
    @property
    def num_versions(self) -> int:
        """Total versions ever ingested (window start + window length)."""
        return self.published.latest + 1

    @property
    def latest_version(self) -> int:
        return self.published.latest

    def close(self) -> None:
        """Nothing to release; kept for callers that close a state when
        done with it (the perf harness's ``worker.py``)."""

    # -- writers --------------------------------------------------------------
    def _append(self, batch: DeltaBatch) -> _Published:  # holds-lock: _appending
        """Append ``batch`` through the store and extend the window by
        it; returns the value published."""
        index = self.store.append(batch)
        with obs.phase_span("state", "extend", label=f"batch:{index}"):
            return self._apply_append(index, batch)

    # -- ingestion ------------------------------------------------------------
    def ingest(self, batch: DeltaBatch) -> Dict[str, Any]:
        """Append one batch and extend the window by it.

        Pending live-tip updates are folded *first* (their own version,
        then the client batch lands on top), so the batch is validated
        against the true tip and receipts stay strictly consecutive —
        a batch never silently swallows or reorders acknowledged
        single-edge updates.  Returns a small receipt (new version,
        epoch, window bounds) for the service response, read from the
        value this batch's append published.
        """
        with self._appending:
            if self._compactor is not None:
                self._follow_store()
                self._compactor.compact()
            published = self._append(batch)
        return {
            "version": published.latest,
            "epoch": published.epoch,
            "window_first": published.base,
            "window_last": published.latest,
        }

    def _follow_store(self) -> None:  # holds-lock: _appending
        """Rebuild if another store handle appended, so a fold seals
        against the store's tip (the overlay re-anchors there)."""
        index = self.store.refresh() - 1
        if index > self.published.latest:
            with obs.phase_span("state", "extend", label="resync"):
                self._apply_append(index, None)

    def _apply_append(self, index: int,  # holds-lock: _appending
                      batch: Optional[DeltaBatch]) -> _Published:
        """Extend the window by the batch the store just made durable at
        ``index``, slide it and re-epoch; returns the value published.
        Without a batch it rebuilds from the store.

        The state must not stay behind the store.  If the incremental
        path fails (or ``index`` is not the next version's batch because
        another process appended, or the state was already poisoned),
        resynchronise with a full rebuild from the store; if even that
        fails, poison the state so queries fail loudly instead of
        answering from a stale graph, and re-raise to the appender.
        """
        with self._writer:
            published = self.published
            current = published.decomposition
            decomp: Optional[CommonGraphDecomposition] = None
            base = published.base
            # Only the batch that makes the next version may extend; a
            # gap means another process appended in between.
            if (batch is not None and published.poisoned is None
                    and index == published.latest):
                try:
                    drop = 0 if self.window is None else max(
                        0, current.num_snapshots + 1 - self.window)
                    # The store validated the batch against its own tip,
                    # so a DeltaError here means *our* tip is stale —
                    # fall through to the rebuild below rather than
                    # silently extending the wrong graph.
                    decomp = current.extended(batch, drop)
                    base += drop
                    departed, rejoined = decomp.moved
                    obs.annotate(
                        departed=len(departed), dropped=drop,
                        batch_size=batch.size, rejoined=len(rejoined))
                # lint: allow(error-taxonomy): recovered by the full rebuild below (counted in resyncs); a rebuild failure poisons the state and re-raises loudly
                except Exception:
                    decomp = None
            epoch = published.epoch + 1
            resyncs = published.resyncs
            if decomp is None:
                try:
                    decomp, base, sizes = self._state_from_store()
                except Exception as exc:
                    self.published = published._with(poisoned=exc)
                    raise
                resyncs += 1
                obs.annotate(resync=True)
                # A rebuilt window's versions may name other snapshots:
                # no root is derived across it.
                moves: Dict[int, _Moves] = {}
            else:
                base_edges, batches = published.sizes
                sizes = (base_edges, (*batches, batch.size))
                moves = {at: step for at, step in published.moves.items()
                         if at > epoch - ROOT_MAX_AGE}
            rebuilt = decomp.moved is None
            if not rebuilt:
                moves[epoch] = decomp.moved
            latest = base + decomp.num_snapshots - 1
            livetip = published.livetip
            if livetip is not None:
                # Re-anchor the overlay on the new tip.  After a fold
                # this keeps only the updates that landed after its
                # seal; after a client batch it replays pending updates
                # (dropping ones the new tip already satisfies) so
                # acknowledged updates are never lost.
                livetip = livetip.rebase_onto(decomp, latest)
            now = self._time_fn()
            times = published.version_times
            self.published = made = _Published(
                decomp, base, sizes,
                version_times={version: times.get(version, now)
                               for version in range(base, latest + 1)},
                epoch=epoch, moves=moves, resyncs=resyncs, livetip=livetip,
            )
        # Answers keyed with older epochs can never hit again; free them.
        # Roots outlive the epoch (a later miss derives from them) unless
        # the window was rebuilt.
        self.result_cache.purge(
            lambda key: rebuilt if isinstance(key, _RootKey)
            else key[-1] != epoch)
        return made

    # -- live-tip updates ----------------------------------------------------
    def _with_livetip(self) -> _Published:  # holds-lock: _writer
        """The published value, refusing a poisoned or livetip-less
        state; creates the overlay and its compactor on first use."""
        published = self.published.serviceable()
        if not self.livetip_enabled:
            raise ServiceError(
                "live-tip updates are disabled on this service "
                "(constructed with livetip=False)"
            )
        if published.livetip is None:
            published = published._with(livetip=LiveTipOverlay(
                published.decomposition, published.latest,
                weight_fn=self.weight_fn,
            ))
            self.published = published
            self._compactor = Compactor(
                lambda: self.published.livetip, self._append,
                self._collapse, max_updates=self._livetip_max_updates,
            )
        return published

    def _collapse(self) -> _Published:  # holds-lock: _appending
        """Clear a sealed live-tip log whose updates cancel out; returns
        the value published.  Re-anchored where it stands, the overlay
        drops the updates that cancel and keeps one that landed after
        the seal pending."""
        with self._writer:
            published = self.published
            self.published = published._with(
                livetip=published.livetip.rebase_onto(
                    published.decomposition, published.latest))
            return self.published

    def update(
        self, kind: str, u: Optional[int] = None, v: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Absorb one single-edge update (or force a fold); returns a receipt.

        ``insert``/``delete`` are validated and logged by the overlay
        and return sub-millisecond; ``compact`` folds the pending log into
        a real batch now.  A threshold-due fold runs inline after the
        triggering update — deterministically at the same point of the
        update stream on every replica, which is what keeps fleet
        fan-out receipts comparable.
        """
        if kind == "compact":
            if u is not None or v is not None:
                raise ProtocolError("a compact update carries no edge")
            return self.compact_tip()
        if u is None or v is None:
            raise ProtocolError(f"a {kind!r} update requires an edge")
        with self._writer:
            published = self._with_livetip()
            overlay = published.livetip.apply_update(kind, int(u), int(v))
            published = self.published = published._with(livetip=overlay)
        obs.counter_inc("repro_livetip_updates_total", kind=kind)
        fold = None
        if self._compactor.due():  # an update not due waits for no append
            with self._appending:
                self._follow_store()
                fold = self._compactor.maybe_compact()
        if fold is not None and fold["compacted"]:
            published = fold["published"]  # what the fold after it made
        return {
            "kind": kind,
            "edge": [int(u), int(v)],
            "seq": overlay.seq,
            "compacted": bool(fold is not None and fold["compacted"]),
            "updates_folded": 0 if fold is None else fold["updates_folded"],
            "tip_version": published.livetip.tip_version,
            "overlay_depth": published.livetip.depth,
            "epoch": published.epoch,
        }

    def compact_tip(self) -> Dict[str, Any]:
        """Fold pending live-tip updates into the TG now (receipt)."""
        with self._writer:
            self._with_livetip()
        with self._appending:
            self._follow_store()
            fold = self._compactor.compact()
            # Read under the lock, after any resync: the receipt is the
            # state's own, not the value published before the fold.
            published = (fold["published"] if fold["compacted"]
                         else self.published)
        return {
            "kind": "compact",
            "seq": published.livetip.seq,
            "compacted": fold["compacted"],
            "updates_folded": fold["updates_folded"],
            "tip_version": published.livetip.tip_version,
            "overlay_depth": published.livetip.depth,
            "epoch": published.epoch,
        }

    # -- reads --------------------------------------------------------------
    # Every read is the same walk: load the published value once,
    # validate the range against it, evaluate through the cache, patch
    # the tip.  No read takes a state or overlay lock.
    def _read_view(self, algorithm: str, source: int,
                   last: Optional[int] = None,
                   capture: bool = True) -> _ReadView:
        """The view of one read, on the value published now.

        The live-tip patch is captured from that value's overlay, which
        is anchored on its decomposition, so an answer is exactly "TG
        at history, overlay at tip" for one instant.  It is skipped
        when the caller's range (``last``) provably ends before the
        tip, or without ``capture``.
        """
        alg = get_algorithm(algorithm)  # raises AlgorithmError if unknown
        published = self.published.serviceable()
        num_vertices = published.decomposition.num_vertices
        if not 0 <= source < num_vertices:
            raise ServiceError(
                f"source {source} out of range [0, {num_vertices})"
            )
        patch: Optional[TipCapture] = None
        if (capture and published.livetip is not None
                and last in (None, published.latest)):
            patch = published.livetip.capture(alg, source)
        return _ReadView(alg, source, published, patch)

    def _evaluate_cached(self, view: _ReadView, first: int,
                         last: int) -> QueryAnswer:
        """One validated range through the result cache and the planner.

        Every evaluation of a temporal batch runs through here against
        the *same* view, so a batch shares the result cache and its
        held snapshots with plain queries — and an ingest landing
        mid-batch can never mix epochs within one answer.  A miss walks
        only the snapshots no live entry holds and stores the planner's
        entry.
        """
        published = view.published
        answer = QueryAnswer(
            algorithm=view.algorithm.name, source=view.source,
            first=first, last=last, epoch=published.epoch,
        )
        entry = self.result_cache.get(answer.key())
        if entry is not None:
            return _hit(answer, entry)
        obs.annotate(result_cache="miss")
        held = self._held_snapshots(answer)
        root_key = _RootKey(answer.algorithm, answer.source)
        planned = self.planner.evaluate(
            published.decomposition, view.algorithm, view.source,
            first - published.base, last - published.base, published.epoch,
            held=held,
            root=(self._root(view, self.result_cache.peek(root_key))
                  if None in held else None),
        )
        answer.values = planned.values
        answer.compact = planned.entry.compact
        answer.node_hits = planned.node_hits
        answer.node_misses = planned.node_misses
        answer.additions_processed = planned.additions_processed
        if planned.root is not None:
            self.result_cache.put(root_key,
                                  _Root(published.epoch, planned.root))
        self.result_cache.put(answer.key(), planned.entry)
        return answer

    def _root(self, view: _ReadView,
              kept: Optional[_Root]) -> Optional[np.ndarray]:
        """The query's values on ``view``'s common graph, read or derived
        from its ``kept`` root, or ``None`` (the walk converges them).

        A root of the view's epoch is those values.  An older one, at most
        :data:`ROOT_MAX_AGE` appends behind with no rebuild since, is
        moved along the net moves of the appends between: the departed
        edges trimmed by value-support tagging, then the rejoined ones
        added, both on the window's common CSR — the paper's deletion
        against recompute trade-off, taken where the trim is small
        (:attr:`~repro.algorithms.base.MonotonicAlgorithm.trims_by_support`).
        The fixpoint is unique, so the values are the static ones.
        """
        published = view.published
        if kept is None or kept.epoch > published.epoch:
            return None
        if kept.epoch == published.epoch:
            return kept.values
        if not view.algorithm.trims_by_support:
            return None
        steps = [published.moves.get(epoch)
                 for epoch in range(kept.epoch + 1, published.epoch + 1)]
        if None in steps:
            return None
        departed, rejoined = _net_moves(steps)
        common, _ = planned_graphs(published.decomposition, self.weight_fn)
        state = VertexState(values=kept.values.copy(), source=view.source)
        # One weight call for both sets: a call costs ~20 µs, whatever
        # the few dozen edges.
        sources, targets = decode_edges(
            np.concatenate([departed.codes, rejoined.codes]))
        weights = self.weight_fn(sources, targets)
        cut = len(departed)
        with obs.phase_span("state", "root", age=len(steps),
                            departed=cut, rejoined=len(rejoined)):
            trim_and_repair(common, view.algorithm, state, departed,
                            tagging="support", deleted_weights=weights[:cut])
            if rejoined:
                incremental_additions(common, view.algorithm, state,
                                      sources[cut:], targets[cut:],
                                      weights[cut:])
        return state.values

    def _held_snapshots(
            self, answer: QueryAnswer) -> List[Optional[SnapshotRef]]:
        """Per version of ``answer``'s range, a live result-cache entry of
        its ``(algorithm, source, epoch)`` that holds the version, with
        the offset there, or ``None``.

        A version's values depend on its snapshot alone, so any entry
        covering it holds them; an evicted entry is gone for this lookup
        too.  Counts one snapshot hit or miss per version.
        """
        held: List[Optional[SnapshotRef]] = [None] * (answer.last
                                                      - answer.first + 1)
        wanted = (answer.algorithm, answer.source, answer.epoch)
        for key, entry in self.result_cache.items():
            if isinstance(key, _RootKey):
                continue
            name, source, first, last, epoch = key
            if (name, source, epoch) == wanted:
                for version in range(max(first, answer.first),
                                     min(last, answer.last) + 1):
                    held[version - answer.first] = (entry, version - first)
        hits = sum(ref is not None for ref in held)
        with self._stats_lock:
            self.snapshot_stats.hits += hits
            self.snapshot_stats.misses += len(held) - hits
        return held

    def query(
        self,
        algorithm: str,
        source: int,
        first: Optional[int] = None,
        last: Optional[int] = None,
    ) -> QueryAnswer:
        """Answer a range query, memoizing whole results and snapshots.

        When the live-tip overlay holds pending updates and the range
        ends at the tip, the tip snapshot's values are *patched* by the
        overlay's logged edges.  Patched values never enter the
        result cache (the cache stays pure-TG and epoch-keyed; the
        overlay moves without epoch bumps).
        """
        view = self._read_view(algorithm, source, last)
        first, last = view.published.resolve_range(first, last)
        answer = self._evaluate_cached(view, first, last)
        if view.patch is not None and last == view.published.latest:
            answer.values = view.patch_tip(last, answer.values)
            answer.livetip_seq = view.patch.seq
        return answer

    def cached_answer(
        self,
        algorithm: str,
        source: int,
        first: Optional[int] = None,
        last: Optional[int] = None,
    ) -> Optional[QueryAnswer]:
        """:meth:`query`'s answer when it is an unpatched result-cache
        hit, else ``None`` — safe to call on the event loop.

        It loads the published value once and takes no state or overlay
        lock, so an ingest or a fold in flight does not change its
        verdict; it never plans, computes or patches: a range ending at
        the tip is answered only while the live-tip log is empty.  It
        counts only a hit; on ``None`` the caller runs :meth:`query`,
        which counts the lookup once and raises whatever refusal
        applies.
        """
        try:
            view = self._read_view(algorithm, source, last, capture=False)
            first, last = view.published.resolve_range(first, last)
        except ReproError:
            return None
        published = view.published
        if (last == published.latest and published.livetip is not None
                and published.livetip.depth):
            return None
        answer = QueryAnswer(
            algorithm=view.algorithm.name, source=source,
            first=first, last=last, epoch=published.epoch,
        )
        entry = self.result_cache.get_nowait(answer.key())
        return None if entry is None else _hit(answer, entry)

    def temporal(
        self, algorithm: str, source: int, specs: Sequence[TemporalSpec],
    ) -> TemporalAnswer:
        """Answer a temporal batch through the cached evaluation path.

        Every coalesced range the engine descends goes through the
        result cache and the memoizing planner against one captured
        view, so a batch costs one TG descent per merged range at most,
        fewer when caches hit.  Every range that ends at the captured
        tip gets its last snapshot patched from the live-tip overlay.
        """
        view = self._read_view(algorithm, source)
        published = view.published
        decomposition, base = published.decomposition, published.base

        def evaluate_range(first: int, last: int) -> List[np.ndarray]:
            return view.patch_tip(
                last, self._evaluate_cached(view, first, last).values)

        def structural_diff(a: int, b: int) -> DeltaBatch:
            # Against the captured window, so a diff never races an ingest.
            return decomposition.diff(a - base, b - base)

        answer = TemporalEngine(
            algorithm=view.algorithm,
            source=source,
            num_vertices=decomposition.num_vertices,
            window_first=base,
            window_last=published.latest,
            evaluate_range=evaluate_range,
            structural_diff=structural_diff,
            version_times=published.version_times,
        ).run(specs)
        answer.epoch = published.epoch
        return answer

    # -- status ------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The health/status payload (superset of ``repro info --json``).

        Reads the published value once and no file of the store.
        """
        published = self.published
        decomposition = published.decomposition
        livetip: Dict[str, Any] = {
            "enabled": self.livetip_enabled,
            "overlay_depth": 0,
            "updates_total": 0,
            "compactions": 0,
            "updates_folded": 0,
            "last_compaction_version": None,
        }
        if published.livetip is not None:
            snap = published.livetip.snapshot()
            livetip.update({
                "tip_version": snap["tip_version"],
                "overlay_depth": snap["overlay_depth"],
                "updates_total": snap["updates_total"],
                "update_counts": snap["update_counts"],
            })
        if self._compactor is not None:
            livetip.update(self._compactor.snapshot())
        payload = store_summary(self.store, decomposition=decomposition,
                                sizes=published.sizes)
        poisoned = published.poisoned is not None
        payload.update({
            "serving": not poisoned,
            "poisoned": poisoned,
            "epoch": published.epoch,
            # Every append bumps the epoch once.
            "ingests": published.epoch,
            "resyncs": published.resyncs,
            "window": self.window,
            "window_first": published.base,
            "window_last": published.latest,
            "window_common_edges": len(decomposition.common),
            "result_cache": {
                "entries": len(self.result_cache),
                "max_entries": self.result_cache.max_entries,
                **self.result_cache.stats.as_dict(),
            },
            "node_cache": self.snapshot_stats.as_dict(),
            "livetip": livetip,
            "observability": obs.describe(),
        })
        return payload

    # -- metrics -----------------------------------------------------------
    def register_metrics(self) -> Callable[[], None]:
        """Publish this state's health into the active metrics registry.

        Attaches a scrape-time collector (cache hit rates, epoch,
        resync/poisoned counts) to the configured observability runtime;
        a no-op when observability is disabled.  Returns the
        unsubscribe callable.
        """
        return obs.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry: "obs.MetricsRegistry") -> None:
        """Scrape-time bridge: CacheStats and state counters → gauges."""
        published = self.published

        def gauge(name: str, value: float, **labels: str) -> None:
            obs.instruments.family(registry, name).labels(**labels).set(value)

        gauge("repro_epoch", published.epoch)
        gauge("repro_ingests", published.epoch)
        gauge("repro_resyncs", published.resyncs)
        gauge("repro_poisoned", 1 if published.poisoned is not None else 0)
        if published.livetip is not None:
            gauge("repro_livetip_depth", published.livetip.depth)
        for label, stats in (("result", self.result_cache.stats),
                             ("node", self.snapshot_stats)):
            gauge("repro_cache_hit_rate", stats.hit_rate, cache=label)
            gauge("repro_cache_hits", stats.hits, cache=label)
            gauge("repro_cache_misses", stats.misses, cache=label)
        # Only the result cache evicts, is invalidated or holds entries.
        stats = self.result_cache.stats
        gauge("repro_cache_evictions", stats.evictions, cache="result")
        gauge("repro_cache_invalidations", stats.invalidations,
              cache="result")
        gauge("repro_cache_entries", len(self.result_cache), cache="result")
