"""CommonGraph: graph analytics on evolving data.

A full reproduction of *CommonGraph: Graph Analytics on Evolving Data*
(Afarin, Gao, Rahman, Abu-Ghazaleh, Gupta — ASPLOS 2023), including the
KickStarter-style streaming substrate it extends and compares against.

Quickstart::

    import repro

    base = repro.rmat_edges(scale=10, num_edges=8_000, seed=1)
    evolving = repro.generate_evolving_graph(
        num_vertices=1 << 10, base=base, num_snapshots=8, batch_size=100,
    )
    decomp = repro.CommonGraphDecomposition.from_evolving(evolving)
    result = repro.DirectHopEvaluator(
        decomp, repro.SSSP(), source=0, weight_fn=repro.default_weights()
    ).run()
    print(result.snapshot_values[3])  # SSSP distances on snapshot 3
"""

from repro.analysis import (
    METRICS,
    TrendReport,
    TrendTracker,
    detect_changes,
    evaluate_metric,
    metric_names,
    vertex_value,
)
from repro.algorithms import (
    ALGORITHMS,
    BFS,
    SSNP,
    SSSP,
    SSWP,
    MonotonicAlgorithm,
    Viterbi,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)
from repro.core import (
    CommonGraphDecomposition,
    agglomerative_schedule,
    DirectHopEvaluator,
    EvolvingQueryResult,
    ParallelDirectHop,
    ParallelResult,
    ParallelWorkSharing,
    ParallelWorkSharingResult,
    ScheduleTree,
    TriangularGrid,
    WorkSharingEvaluator,
    build_schedule,
    direct_hop_tree,
    exact_steiner,
    greedy_steiner,
    halving_schedule,
)
from repro.errors import (
    AlgorithmError,
    DeadlineExceededError,
    DeltaError,
    EdgeSetError,
    EngineError,
    GraphError,
    IntegrityError,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
    ScheduleError,
    SnapshotError,
)
from repro.evolving import (
    DeltaBatch,
    EvolvingGraph,
    RecoveryReport,
    SnapshotStore,
    UpdateStreamGenerator,
    VerifyReport,
    VersionController,
    generate_evolving_graph,
)
from repro.faults import FaultPlan, InjectedFault, corrupt_bytes
from repro.resilience import Deadline, RetryPolicy, retry_call
from repro.graph import (
    DATASETS,
    GraphStats,
    compute_stats,
    induced_subgraph,
    relabel_dense,
    remove_self_loops,
    reverse_edges,
    symmetrize,
    weakly_connected_labels,
    CSRGraph,
    DatasetSpec,
    EdgeSet,
    HashWeights,
    MutableGraph,
    OverlayGraph,
    UnitWeights,
    default_weights,
    erdos_renyi_edges,
    generate_dataset,
    load_edge_list,
    rmat_edges,
    save_edge_list,
)
from repro.kickstarter import (
    EngineCounters,
    StreamingResult,
    StreamingSession,
    VertexState,
    incremental_additions,
    push_until_stable,
    static_compute,
    trim_and_repair,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algorithms
    "MonotonicAlgorithm",
    "BFS",
    "SSSP",
    "SSWP",
    "SSNP",
    "Viterbi",
    "get_algorithm",
    "register_algorithm",
    "algorithm_names",
    "ALGORITHMS",
    # graph substrates
    "EdgeSet",
    "CSRGraph",
    "OverlayGraph",
    "MutableGraph",
    "HashWeights",
    "UnitWeights",
    "default_weights",
    "rmat_edges",
    "erdos_renyi_edges",
    "generate_dataset",
    "DatasetSpec",
    "DATASETS",
    "load_edge_list",
    "save_edge_list",
    "GraphStats",
    "compute_stats",
    "weakly_connected_labels",
    "symmetrize",
    "reverse_edges",
    "remove_self_loops",
    "induced_subgraph",
    "relabel_dense",
    # evolving graphs
    "DeltaBatch",
    "EvolvingGraph",
    "SnapshotStore",
    "UpdateStreamGenerator",
    "generate_evolving_graph",
    "VersionController",
    # kickstarter substrate
    "static_compute",
    "push_until_stable",
    "incremental_additions",
    "trim_and_repair",
    "StreamingSession",
    "StreamingResult",
    "VertexState",
    "EngineCounters",
    # commongraph core
    "CommonGraphDecomposition",
    "TriangularGrid",
    "ScheduleTree",
    "direct_hop_tree",
    "greedy_steiner",
    "halving_schedule",
    "agglomerative_schedule",
    "exact_steiner",
    "build_schedule",
    "DirectHopEvaluator",
    "WorkSharingEvaluator",
    "ParallelDirectHop",
    "ParallelResult",
    "ParallelWorkSharing",
    "ParallelWorkSharingResult",
    "EvolvingQueryResult",
    # analysis
    "TrendTracker",
    "TrendReport",
    "detect_changes",
    "METRICS",
    "evaluate_metric",
    "metric_names",
    "vertex_value",
    # errors
    "ReproError",
    "GraphError",
    "EdgeSetError",
    "DeltaError",
    "SnapshotError",
    "IntegrityError",
    "ScheduleError",
    "AlgorithmError",
    "EngineError",
    "ResilienceError",
    "RetryExhaustedError",
    "DeadlineExceededError",
    # resilience & fault injection
    "RetryPolicy",
    "Deadline",
    "retry_call",
    "FaultPlan",
    "InjectedFault",
    "corrupt_bytes",
    "VerifyReport",
    "RecoveryReport",
]
