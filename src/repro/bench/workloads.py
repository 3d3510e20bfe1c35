"""Named evolving-graph workloads for the benchmark harness.

A workload = (scaled dataset, update stream, query).  The paper's
experiments fix the query source per graph; we deterministically pick a
high-out-degree vertex so queries reach a large fraction of the graph
(a low-degree source would make every strategy trivially fast and the
comparison meaningless).

Two profiles control scale:

* ``paper`` — the default: datasets at their DESIGN.md scale (~1/1000
  of the originals), 50 snapshots, 75-update batches; mirrors §5.
* ``ci`` — a fast profile for CI (``python -m benchmarks.paper --profile ci``)
  and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.errors import ReproError
from repro.evolving.generator import generate_evolving_graph
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import DATASETS, generate_dataset
from repro.graph.weights import WeightFn, default_weights

__all__ = ["WorkloadSpec", "Workload", "PROFILES", "build_workload", "pick_source"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters defining one evolving-graph workload."""

    dataset: str = "LJ"
    num_snapshots: int = 50
    batch_size: int = 75
    add_fraction: float = 0.5
    readd_fraction: float = 0.5
    edge_scale: float = 1.0
    seed: int = 0

    def scaled(self, **overrides: object) -> "WorkloadSpec":
        """Copy with fields replaced."""
        return replace(self, **overrides)


#: Named parameter profiles (see module docstring).
PROFILES: Dict[str, WorkloadSpec] = {
    "paper": WorkloadSpec(num_snapshots=50, batch_size=75, edge_scale=1.0),
    "ci": WorkloadSpec(num_snapshots=10, batch_size=40, edge_scale=0.1),
}


def pick_source(edges_csr: CSRGraph) -> int:
    """Deterministic query source: the maximum out-degree vertex."""
    degrees = edges_csr.degrees()
    return int(np.argmax(degrees))


@dataclass
class Workload:
    """A materialised workload: evolving graph + query configuration."""

    spec: WorkloadSpec
    evolving: EvolvingGraph
    source: int
    weight_fn: WeightFn

    @property
    def num_vertices(self) -> int:
        return self.evolving.num_vertices


def build_workload(
    spec: WorkloadSpec, weight_fn: Optional[WeightFn] = None
) -> Workload:
    """Generate the evolving graph and query source for a spec."""
    if spec.dataset not in DATASETS:
        raise ReproError(
            f"unknown dataset {spec.dataset!r}; available: {sorted(DATASETS)}"
        )
    dataset = DATASETS[spec.dataset]
    base = generate_dataset(spec.dataset, edge_scale=spec.edge_scale)
    num_vertices = dataset.num_vertices
    base_csr = CSRGraph.from_edge_set(base, num_vertices)
    source = pick_source(base_csr)
    evolving = generate_evolving_graph(
        num_vertices=num_vertices,
        base=base,
        num_snapshots=spec.num_snapshots,
        batch_size=spec.batch_size,
        add_fraction=spec.add_fraction,
        readd_fraction=spec.readd_fraction,
        seed=spec.seed,
        name=spec.dataset,
        protect_vertex=source,
    )
    return Workload(
        spec=spec,
        evolving=evolving,
        source=source,
        weight_fn=weight_fn if weight_fn is not None else default_weights(),
    )
