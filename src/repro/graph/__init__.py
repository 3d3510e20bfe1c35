"""Graph substrates: edge sets, CSR, overlays and stacks, mutation, generation, I/O."""

from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet, MAX_VERTEX_ID, decode_edges, encode_edges
from repro.graph.generators import (
    DATASETS,
    DatasetSpec,
    erdos_renyi_edges,
    generate_dataset,
    rmat_edges,
)
from repro.graph.io import (
    load_edge_list,
    load_edge_set_npz,
    save_edge_list,
    save_edge_set_npz,
)
from repro.graph.mutable import MutableGraph, MutationCosts
from repro.graph.overlay import OverlayGraph
from repro.graph.stacked import IntervalDelta, StackedGraph
from repro.graph.stats import GraphStats, compute_stats, weakly_connected_labels
from repro.graph.transform import (
    induced_subgraph,
    relabel_dense,
    remove_self_loops,
    reverse_edges,
    symmetrize,
)
from repro.graph.weights import HashWeights, UnitWeights, WeightFn, default_weights

__all__ = [
    "CSRGraph",
    "EdgeSet",
    "MAX_VERTEX_ID",
    "encode_edges",
    "decode_edges",
    "OverlayGraph",
    "IntervalDelta",
    "StackedGraph",
    "MutableGraph",
    "MutationCosts",
    "HashWeights",
    "UnitWeights",
    "WeightFn",
    "default_weights",
    "rmat_edges",
    "erdos_renyi_edges",
    "DatasetSpec",
    "DATASETS",
    "generate_dataset",
    "load_edge_list",
    "save_edge_list",
    "save_edge_set_npz",
    "load_edge_set_npz",
    "GraphStats",
    "compute_stats",
    "weakly_connected_labels",
    "symmetrize",
    "reverse_edges",
    "remove_self_loops",
    "induced_subgraph",
    "relabel_dense",
]
