"""Evolving graphs: a base snapshot plus a stream of delta batches.

An :class:`EvolvingGraph` is the input to every evaluation strategy in
this package: the KickStarter streaming baseline walks the batches in
order, while the CommonGraph engines first decompose the snapshots into
a common graph plus per-snapshot surpluses (:mod:`repro.core.common`).

The vertex set is fixed across snapshots (vertex additions can be
modelled by pre-allocating isolated vertices), matching the paper's
edge-update model.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import WeightFn

__all__ = ["EvolvingGraph"]


class EvolvingGraph:
    """A sequence of graph snapshots defined by a base plus delta batches.

    ``num_snapshots == len(batches) + 1``: snapshot 0 is the base edge
    set; snapshot ``t+1`` is snapshot ``t`` with batch ``t`` applied.
    Snapshot edge sets are materialised lazily and cached.  ``strict``
    is the stream's strictness: whether every batch must add only new
    edges and delete only present ones (:meth:`DeltaBatch.apply`).
    """

    def __init__(
        self,
        num_vertices: int,
        base: EdgeSet,
        batches: Sequence[DeltaBatch] = (),
        name: str = "",
        strict: bool = True,
    ) -> None:
        if base.max_vertex() >= num_vertices:
            raise SnapshotError("base edge set references vertex out of range")
        self.num_vertices = int(num_vertices)
        self.name = name
        self.batches: List[DeltaBatch] = list(batches)
        self.strict = strict
        self._edge_sets: List[Optional[EdgeSet]] = [base] + [None] * len(self.batches)

    # -- shape ------------------------------------------------------------
    @property
    def num_snapshots(self) -> int:
        return len(self.batches) + 1

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self.num_snapshots
        if not 0 <= index < self.num_snapshots:
            raise SnapshotError(
                f"snapshot {index} out of range [0, {self.num_snapshots})"
            )
        return index

    # -- snapshot access -----------------------------------------------------
    def snapshot_edges(self, index: int) -> EdgeSet:
        """Edge set of snapshot ``index`` (cached)."""
        index = self._check_index(index)
        # Find the latest materialised snapshot at or before `index`.
        known = index
        while self._edge_sets[known] is None:
            known -= 1
        edges = self._edge_sets[known]
        for t in range(known, index):
            edges = self.batches[t].apply(edges, strict=self.strict)
            self._edge_sets[t + 1] = edges
        assert edges is not None
        return edges

    def snapshot_csr(self, index: int, weight_fn: Optional[WeightFn] = None) -> CSRGraph:
        """Materialise snapshot ``index`` as a CSR."""
        return CSRGraph.from_edge_set(
            self.snapshot_edges(index), self.num_vertices, weight_fn=weight_fn
        )

    def all_snapshot_edges(self) -> List[EdgeSet]:
        """Edge sets of every snapshot (materialises all of them)."""
        return [self.snapshot_edges(i) for i in range(self.num_snapshots)]

    # -- growth ------------------------------------------------------------
    def append_batch(self, batch: DeltaBatch) -> None:
        """Extend the stream with one more batch (one more snapshot)."""
        # Validate eagerly so a bad batch does not poison the cache.
        last = self.snapshot_edges(self.num_snapshots - 1)
        new_edges = batch.apply(last, strict=self.strict)
        if new_edges.max_vertex() >= self.num_vertices:
            raise SnapshotError("batch references vertex out of range")
        self.batches.append(batch)
        self._edge_sets.append(new_edges)

    def coarsened(self, factor: int) -> "EvolvingGraph":
        """A sparser timeline: every ``factor`` batches fused into one.

        Keeps every ``factor``-th snapshot (always including the last),
        composing the intermediate delta batches.  This is the
        library-level counterpart of Figure 9's trade-off between batch
        size and snapshot count — the total *net* updates are preserved,
        their granularity is not.
        """
        if factor < 1:
            raise SnapshotError("factor must be >= 1")
        if factor == 1 or not self.batches:
            return EvolvingGraph(
                self.num_vertices, self.snapshot_edges(0),
                list(self.batches), name=self.name, strict=self.strict,
            )
        fused: List[DeltaBatch] = []
        for start in range(0, len(self.batches), factor):
            group = self.batches[start:start + factor]
            combined = group[0]
            for batch in group[1:]:
                combined = combined.compose(batch)
            fused.append(combined)
        return EvolvingGraph(
            self.num_vertices, self.snapshot_edges(0), fused, name=self.name,
            strict=self.strict,
        )

    # -- persistence -----------------------------------------------------------
    def save_npz(self, path: Union[str, Path]) -> None:
        """Save the evolving graph to a compressed ``.npz`` bundle."""
        payload = {
            "num_vertices": np.asarray([self.num_vertices], dtype=np.int64),
            "name": np.asarray([self.name]),
            "base": self.snapshot_edges(0).codes,
        }
        for t, batch in enumerate(self.batches):
            payload[f"add_{t}"] = batch.additions.codes
            payload[f"del_{t}"] = batch.deletions.codes
        np.savez_compressed(path, **payload)

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "EvolvingGraph":
        """Load an evolving graph written by :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            num_vertices = int(data["num_vertices"][0])
            name = str(data["name"][0])
            base = EdgeSet(data["base"])
            batches = []
            t = 0
            while f"add_{t}" in data:
                batches.append(
                    DeltaBatch(EdgeSet(data[f"add_{t}"]), EdgeSet(data[f"del_{t}"]))
                )
                t += 1
        return cls(num_vertices, base, batches, name=name)

    def __repr__(self) -> str:
        return (
            f"EvolvingGraph(name={self.name!r}, V={self.num_vertices}, "
            f"snapshots={self.num_snapshots})"
        )
