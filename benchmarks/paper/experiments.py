"""Experiment drivers reproducing every table and figure of §5.

Each public function regenerates one artefact of the paper's evaluation
and returns an :class:`ExperimentResult` whose rows mirror the rows or
series of that table/figure.  Absolute times differ from the paper (our
substrate is a NumPy engine on scaled datasets, not C++ on a 56-core
Xeon); the *shapes* — who wins, by what rough factor, where crossovers
fall — are the reproduction target (see EXPERIMENTS.md).
Workloads and rendering come from the library (:mod:`repro.bench`).

Index:

========================  ====================================================
Function                  Paper artefact
========================  ====================================================
``figure1``               Fig 1 — deletion vs addition cost (compute + mutation)
``table4``                Table 4 — KS time, Direct-Hop / Work-Sharing speedups
``figure8``               Fig 8 — time vs number of snapshots
``figure9``               Fig 9 — fixed total updates, batch size vs snapshots
``figure10``              Fig 10 — sensitivity to addition:deletion ratio
``table5``                Table 5 — parallel Direct-Hop projection
``figure11``              Fig 11 — execution-time breakdown
``ablation_steiner``      design ablation: schedule construction strategies
``ablation_overlay``      design ablation: overlay vs rebuild representation
``ablation_scheduler``    design ablation: sync vs async vs auto engine modes
``ablation_batch_scale``  scale ablation: batch size vs the time ordering
``ablation_storage``      §4.1 space claim: edges stored per representation
``range_query``           extension: a window from its own ICG vs from ``Gc``
========================  ====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.bench.reporting import render_chart, render_markdown_table, render_table
from repro.bench.workloads import Workload, WorkloadSpec, build_workload
from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.parallel import ParallelDirectHop
from repro.core.steiner import (
    agglomerative_schedule,
    build_schedule,
    direct_hop_tree,
    exact_steiner,
    greedy_steiner,
    split_schedule,
)
from repro.core.triangular_grid import TriangularGrid
from repro.evolving.generator import UpdateStreamGenerator
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutableGraph
from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import incremental_additions, static_compute
from repro.kickstarter.streaming import StreamingSession

__all__ = [
    "ExperimentResult",
    "figure1",
    "table4",
    "figure8",
    "figure9",
    "figure10",
    "table5",
    "figure11",
    "ablation_steiner",
    "ablation_overlay",
    "ablation_scheduler",
    "ablation_batch_scale",
    "ablation_storage",
    "range_query",
    "EXPERIMENTS",
    "run_experiment",
]

DEFAULT_ALGORITHMS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")
SCALABILITY_ALGORITHMS = ("BFS", "SSSP", "SSWP", "SSNP")


@dataclass
class ExperimentResult:
    """Uniform result shape: a titled table plus free-form notes."""

    name: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Pre-rendered ASCII charts (populated by the figure drivers).
    charts: List[str] = field(default_factory=list)

    def render(self) -> str:
        text = render_table(self.headers, self.rows, title=self.title)
        if self.charts:
            text += "\n\n" + "\n\n".join(self.charts)
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def to_markdown(self) -> str:
        parts = [f"### {self.title}", ""]
        if self.params:
            settings = ", ".join(f"{k}={v}" for k, v in self.params.items())
            parts.append(f"*Parameters:* {settings}")
            parts.append("")
        parts.append(render_markdown_table(self.headers, self.rows))
        for chart in self.charts:
            parts.append("")
            parts.append("```")
            parts.append(chart)
            parts.append("```")
        if self.notes:
            parts.append("")
            parts.extend(f"> {n}" for n in self.notes)
        return "\n".join(parts)

    def column(self, header: str) -> List[object]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _truncated(evolving: EvolvingGraph, num_snapshots: int) -> EvolvingGraph:
    """Prefix of an evolving graph with ``num_snapshots`` snapshots."""
    return EvolvingGraph(
        evolving.num_vertices,
        evolving.snapshot_edges(0),
        evolving.batches[: num_snapshots - 1],
        name=evolving.name,
    )


def _attach_line_charts(
    result: ExperimentResult,
    group_header: str,
    x_header: str,
    series_headers: Sequence[str],
    y_label: str = "seconds",
) -> None:
    """Render one ASCII chart per group value (e.g. per algorithm)."""
    groups = []
    for value in result.column(group_header):
        if value not in groups:
            groups.append(value)
    for group in groups:
        rows = [
            dict(zip(result.headers, row))
            for row in result.rows
            if row[result.headers.index(group_header)] == group
        ]
        x_values = [float(r[x_header]) for r in rows]
        series = {h: [float(r[h]) for r in rows] for h in series_headers}
        result.charts.append(render_chart(
            x_values, series,
            title=f"{result.name} — {group}",
            y_label=y_label, x_label=x_header,
        ))


def _run_kickstarter(workload: Workload, algorithm: str) -> float:
    session = StreamingSession(
        workload.evolving,
        get_algorithm(algorithm),
        workload.source,
        weight_fn=workload.weight_fn,
        keep_values=False,
    )
    return session.run().work_seconds


def _run_direct_hop(
    workload: Workload, algorithm: str, decomp: CommonGraphDecomposition
):
    evaluator = DirectHopEvaluator(
        decomp, get_algorithm(algorithm), workload.source, weight_fn=workload.weight_fn
    )
    return evaluator.run(keep_values=False)


def _run_work_sharing(
    workload: Workload, algorithm: str, decomp: CommonGraphDecomposition
):
    evaluator = WorkSharingEvaluator(
        decomp, get_algorithm(algorithm), workload.source, weight_fn=workload.weight_fn
    )
    return evaluator.run(keep_values=False)


# ---------------------------------------------------------------------------
# Figure 1 — deletion vs addition costs
# ---------------------------------------------------------------------------

def figure1(
    dataset: str = "LJ",
    batch_sizes: Sequence[int] = (75, 150, 225, 300, 375),
    algorithms: Sequence[str] = SCALABILITY_ALGORITHMS,
    edge_scale: float = 1.0,
    repeats: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Fig 1: incremental computation and mutation, additions vs deletions.

    For each batch size we converge the query, then measure separately
    (a) mutating + incrementally processing a batch of additions, and
    (b) the same for an equal-sized batch of deletions.
    """
    result = ExperimentResult(
        name="figure1",
        title=f"Figure 1 — incremental & mutation cost, additions vs deletions ({dataset})",
        headers=[
            "algorithm", "batch", "incr_add_s", "incr_del_s", "del/add",
            "mut_add_s", "mut_del_s", "mut del/add",
        ],
        params={
            "dataset": dataset, "edge_scale": edge_scale,
            "batch_sizes": tuple(batch_sizes), "repeats": repeats,
        },
    )
    spec = WorkloadSpec(
        dataset=dataset, num_snapshots=2, batch_size=max(batch_sizes),
        edge_scale=edge_scale, seed=seed,
    )
    workload = build_workload(spec)
    base_edges = workload.evolving.snapshot_edges(0)

    for algorithm in algorithms:
        alg = get_algorithm(algorithm)
        for batch_size in batch_sizes:
            incr_add = incr_del = mut_add = mut_del = 0.0
            for rep in range(repeats):
                gen = UpdateStreamGenerator(
                    workload.num_vertices, base_edges, batch_size,
                    add_fraction=1.0, seed=seed + 101 * rep,
                    protect_vertex=workload.source,
                )
                additions = gen.next_batch().additions
                gen = UpdateStreamGenerator(
                    workload.num_vertices, base_edges, batch_size,
                    add_fraction=0.0, seed=seed + 101 * rep,
                    protect_vertex=workload.source,
                )
                deletions = gen.next_batch().deletions

                # additions: mutate, then propagate
                graph = MutableGraph.from_edge_set(
                    base_edges, workload.num_vertices, weight_fn=workload.weight_fn
                )
                state = static_compute(graph, alg, workload.source, track_parents=True)
                t0 = time.perf_counter()
                graph.add_batch(additions)
                t1 = time.perf_counter()
                src, dst = additions.arrays()
                incremental_additions(
                    graph, alg, state, src, dst, workload.weight_fn(src, dst)
                )
                t2 = time.perf_counter()
                mut_add += t1 - t0
                incr_add += t2 - t1

                # deletions: mutate, then trim-and-repair
                graph = MutableGraph.from_edge_set(
                    base_edges, workload.num_vertices, weight_fn=workload.weight_fn
                )
                state = static_compute(graph, alg, workload.source, track_parents=True)
                del_src, del_dst = deletions.arrays()
                del_weights = workload.weight_fn(del_src, del_dst)
                t0 = time.perf_counter()
                graph.delete_batch(deletions)
                t1 = time.perf_counter()
                trim_and_repair(
                    graph, alg, state, deletions, deleted_weights=del_weights
                )
                t2 = time.perf_counter()
                mut_del += t1 - t0
                incr_del += t2 - t1
            incr_add /= repeats
            incr_del /= repeats
            mut_add /= repeats
            mut_del /= repeats
            result.rows.append([
                algorithm, batch_size,
                round(incr_add, 6), round(incr_del, 6),
                round(incr_del / incr_add, 2) if incr_add > 0 else float("inf"),
                round(mut_add, 6), round(mut_del, 6),
                round(mut_del / mut_add, 2) if mut_add > 0 else float("inf"),
            ])
    _attach_line_charts(
        result, "algorithm", "batch",
        ("incr_add_s", "incr_del_s", "mut_add_s", "mut_del_s"),
    )
    result.notes.append(
        "paper shape: deletions ~3x additions for incremental computation; "
        "mutation cost several times higher for deletions"
    )
    return result


# ---------------------------------------------------------------------------
# Table 4 — headline comparison
# ---------------------------------------------------------------------------

def table4(
    datasets: Sequence[str] = ("LJ", "DL", "WEN", "TTW"),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Table 4: KickStarter time; Direct-Hop and Work-Sharing speedups."""
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="table4",
        title="Table 4 — execution time and speedups over KickStarter "
        f"({base_spec.num_snapshots} snapshots, batch {base_spec.batch_size})",
        headers=[
            "graph", "algorithm", "kickstarter_s",
            "direct_hop_s", "dh_speedup", "work_sharing_s", "ws_speedup",
            "dh_additions", "ws_additions",
        ],
        params={
            "num_snapshots": base_spec.num_snapshots,
            "batch_size": base_spec.batch_size,
            "edge_scale": base_spec.edge_scale,
        },
    )
    for dataset in datasets:
        workload = build_workload(base_spec.scaled(dataset=dataset))
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        for algorithm in algorithms:
            ks = _run_kickstarter(workload, algorithm)
            dh_result = _run_direct_hop(workload, algorithm, decomp)
            ws_result = _run_work_sharing(workload, algorithm, decomp)
            dh, ws = dh_result.work_seconds, ws_result.work_seconds
            result.rows.append([
                dataset, algorithm, round(ks, 4),
                round(dh, 4), round(ks / dh, 2),
                round(ws, 4), round(ks / ws, 2),
                dh_result.additions_processed, ws_result.additions_processed,
            ])
    result.notes.append(
        "paper shape: Direct-Hop 1.02x-7.91x over KickStarter; "
        "Work-Sharing 1.38x-8.17x"
    )
    result.notes.append(
        "the additions columns are the scale-free work metric: "
        "work-sharing streams strictly fewer additions than direct-hop"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — scalability in the number of snapshots
# ---------------------------------------------------------------------------

def figure8(
    dataset: str = "TTW",
    algorithms: Sequence[str] = SCALABILITY_ALGORITHMS,
    snapshot_counts: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Fig 8: execution time versus number of snapshots (fixed batch)."""
    base_spec = (spec if spec is not None else WorkloadSpec()).scaled(
        dataset=dataset, num_snapshots=max(snapshot_counts)
    )
    result = ExperimentResult(
        name="figure8",
        title=f"Figure 8 — time vs number of snapshots ({dataset}, "
        f"batch {base_spec.batch_size})",
        headers=[
            "algorithm", "snapshots", "kickstarter_s", "direct_hop_s",
            "work_sharing_s", "dh_additions", "ws_additions",
        ],
        params={"dataset": dataset, "batch_size": base_spec.batch_size,
                "edge_scale": base_spec.edge_scale},
    )
    full = build_workload(base_spec)
    for count in snapshot_counts:
        truncated = _truncated(full.evolving, count)
        workload = Workload(
            spec=base_spec.scaled(num_snapshots=count),
            evolving=truncated,
            source=full.source,
            weight_fn=full.weight_fn,
        )
        decomp = CommonGraphDecomposition.from_evolving(truncated)
        for algorithm in algorithms:
            ks = _run_kickstarter(workload, algorithm)
            dh_result = _run_direct_hop(workload, algorithm, decomp)
            ws_result = _run_work_sharing(workload, algorithm, decomp)
            result.rows.append([
                algorithm, count, round(ks, 4),
                round(dh_result.work_seconds, 4),
                round(ws_result.work_seconds, 4),
                dh_result.additions_processed, ws_result.additions_processed,
            ])
    _attach_line_charts(
        result, "algorithm", "snapshots",
        ("kickstarter_s", "direct_hop_s", "work_sharing_s"),
    )
    result.notes.append(
        "paper shape: all three scale linearly; work-sharing overtakes "
        "direct-hop beyond ~23-35 snapshots"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — fixed total updates, batch size vs snapshot count
# ---------------------------------------------------------------------------

def figure9(
    dataset: str = "TTW",
    algorithms: Sequence[str] = SCALABILITY_ALGORITHMS,
    sweep: Sequence[Tuple[int, int]] = (
        (75, 50), (94, 40), (125, 30), (188, 20), (375, 10),
    ),
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Fig 9: trade batch size against snapshot count, total updates fixed."""
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="figure9",
        title=f"Figure 9 — batch size vs snapshots, fixed total updates ({dataset})",
        headers=[
            "algorithm", "batch", "snapshots", "kickstarter_s",
            "direct_hop_s", "work_sharing_s",
        ],
        params={"dataset": dataset, "sweep": tuple(sweep),
                "edge_scale": base_spec.edge_scale},
    )
    for batch_size, count in sweep:
        workload = build_workload(
            base_spec.scaled(
                dataset=dataset, batch_size=batch_size, num_snapshots=count
            )
        )
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        for algorithm in algorithms:
            ks = _run_kickstarter(workload, algorithm)
            dh = _run_direct_hop(workload, algorithm, decomp).work_seconds
            ws = _run_work_sharing(workload, algorithm, decomp).work_seconds
            result.rows.append(
                [algorithm, batch_size, count, round(ks, 4), round(dh, 4), round(ws, 4)]
            )
    _attach_line_charts(
        result, "algorithm", "batch",
        ("kickstarter_s", "direct_hop_s", "work_sharing_s"),
    )
    result.notes.append(
        "paper shape: direct-hop wins at large batches / few snapshots; "
        "work-sharing wins at small batches / many snapshots"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — sensitivity to the addition:deletion ratio
# ---------------------------------------------------------------------------

def figure10(
    dataset: str = "TTW",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    ratios: Sequence[Tuple[int, int]] = ((150, 50), (100, 100), (50, 150)),
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Fig 10: Direct-Hop speedup as the deletion share grows."""
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="figure10",
        title=f"Figure 10 — speedup vs addition:deletion ratio ({dataset})",
        headers=["algorithm", "adds/batch", "dels/batch", "dh_speedup", "ws_speedup"],
        params={"dataset": dataset, "ratios": tuple(ratios),
                "num_snapshots": base_spec.num_snapshots,
                "edge_scale": base_spec.edge_scale},
    )
    for adds, dels in ratios:
        batch_size = adds + dels
        workload = build_workload(
            base_spec.scaled(
                dataset=dataset,
                batch_size=batch_size,
                add_fraction=adds / batch_size,
            )
        )
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        for algorithm in algorithms:
            ks = _run_kickstarter(workload, algorithm)
            dh = _run_direct_hop(workload, algorithm, decomp).work_seconds
            ws = _run_work_sharing(workload, algorithm, decomp).work_seconds
            result.rows.append(
                [algorithm, adds, dels, round(ks / dh, 2), round(ks / ws, 2)]
            )
    _attach_line_charts(
        result, "algorithm", "dels/batch",
        ("dh_speedup", "ws_speedup"), y_label="speedup",
    )
    result.notes.append(
        "paper shape: the more deletions, the larger Direct-Hop's speedup "
        "over KickStarter"
    )
    return result


# ---------------------------------------------------------------------------
# Table 5 — parallel Direct-Hop projection
# ---------------------------------------------------------------------------

def table5(
    datasets: Sequence[str] = ("LJ", "DL", "WEN", "TTW"),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Table 5: longest single hop vs sequential KickStarter.

    As in the paper, the parallel time is the critical-path estimate —
    the slowest of the independent hops ("given a system with
    sufficient cores").
    """
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="table5",
        title="Table 5 — parallel Direct-Hop (critical-path projection)",
        headers=["graph", "algorithm", "kickstarter_s", "longest_hop_s", "speedup"],
        params={"num_snapshots": base_spec.num_snapshots,
                "batch_size": base_spec.batch_size,
                "edge_scale": base_spec.edge_scale},
    )
    for dataset in datasets:
        workload = build_workload(base_spec.scaled(dataset=dataset))
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        for algorithm in algorithms:
            ks = _run_kickstarter(workload, algorithm)
            parallel = ParallelDirectHop(
                decomp, get_algorithm(algorithm), workload.source,
                weight_fn=workload.weight_fn,
            ).run()
            longest = parallel.critical_path_seconds
            result.rows.append([
                dataset, algorithm, round(ks, 4), round(longest, 5),
                round(ks / longest, 1) if longest > 0 else float("inf"),
            ])
    result.notes.append(
        "paper shape: one to two orders of magnitude over sequential "
        "KickStarter (their Table 5: 51x-396x)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — execution-time breakdown
# ---------------------------------------------------------------------------

def figure11(
    dataset: str = "TTW",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Fig 11: per-phase breakdown, KickStarter vs CommonGraph."""
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="figure11",
        title=f"Figure 11 — execution-time breakdown ({dataset})",
        headers=[
            "algorithm", "system", "incr_add_s", "incr_del_s",
            "mut_add_s", "mut_del_s", "initial_s",
        ],
        params={"dataset": dataset,
                "num_snapshots": base_spec.num_snapshots,
                "batch_size": base_spec.batch_size,
                "edge_scale": base_spec.edge_scale},
    )
    workload = build_workload(base_spec.scaled(dataset=dataset))
    decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
    for algorithm in algorithms:
        session = StreamingSession(
            workload.evolving, get_algorithm(algorithm), workload.source,
            weight_fn=workload.weight_fn, keep_values=False,
        )
        ks = session.run().timer
        result.rows.append([
            algorithm, "KS",
            round(ks.seconds("incremental_add"), 4),
            round(ks.seconds("incremental_del"), 4),
            round(ks.seconds("mutation_add"), 4),
            round(ks.seconds("mutation_del"), 4),
            round(ks.seconds("initial_compute"), 4),
        ])
        ws = WorkSharingEvaluator(
            decomp, get_algorithm(algorithm), workload.source,
            weight_fn=workload.weight_fn,
        ).run(keep_values=False).timer
        result.rows.append([
            algorithm, "CG",
            round(ws.seconds("incremental_add"), 4),
            0.0, 0.0, 0.0,
            round(ws.seconds("initial_compute"), 4),
        ])
    result.notes.append(
        "paper shape: CommonGraph eliminates both mutation components and "
        "incremental deletions entirely"
    )
    return result


# ---------------------------------------------------------------------------
# Design ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------

def ablation_steiner(
    dataset: str = "LJ",
    num_snapshots: int = 5,
    batch_size: int = 75,
    edge_scale: float = 0.25,
    seed: int = 0,
) -> ExperimentResult:
    """Schedule-construction ablation: direct-hop vs greedy vs exact.

    Costs are in additions (the paper's schedule metric); exact search
    is exponential, hence the small snapshot count.  ``walk_ms`` is what
    ranks the trees on the level-synchronous walk: the median time of
    one SSSP ``WorkSharingEvaluator(schedule=tree).run()`` over five
    rounds from the four highest out-degree vertices, every tree's walks
    interleaved, after one untimed round that builds the plan.
    """
    workload = build_workload(WorkloadSpec(
        dataset=dataset, num_snapshots=num_snapshots, batch_size=batch_size,
        edge_scale=edge_scale, seed=seed,
    ))
    decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
    grid = TriangularGrid(decomp)
    result = ExperimentResult(
        name="ablation_steiner",
        title="Ablation — schedule construction (cost in additions)",
        headers=["strategy", "cost_additions", "stabilisations", "depth",
                 "walk_ms"],
        params={"dataset": dataset, "num_snapshots": num_snapshots,
                "batch_size": batch_size},
    )
    trees = {
        "direct-hop": direct_hop_tree(grid),
        "greedy (no bypass)": greedy_steiner(grid, compress=False),
        "greedy + bypass": greedy_steiner(grid, compress=True),
        "halving (fanout 2)": split_schedule(grid, 2),
        "split-4 (the default)": build_schedule(grid),
        "agglomerative": agglomerative_schedule(grid),
        "exact + bypass": exact_steiner(grid),
    }
    degrees = decomp.common_csr(workload.weight_fn).degrees()
    sources = np.argsort(-degrees, kind="stable")[:4].tolist()
    alg = get_algorithm("SSSP")
    samples: Dict[str, List[float]] = {label: [] for label in trees}
    for round_ in range(6):
        for source in sources:
            for label, tree in trees.items():
                walk = WorkSharingEvaluator(decomp, alg, source,
                                            weight_fn=workload.weight_fn,
                                            schedule=tree)
                start = time.perf_counter()
                walk.run(keep_values=False)
                if round_:
                    samples[label].append(time.perf_counter() - start)
    for label, tree in trees.items():
        result.rows.append([label, tree.cost(grid), tree.num_stabilisations(),
                            sum(1 for _ in tree.levels()),
                            round(1000 * float(np.median(samples[label])), 3)])
    return result


def ablation_overlay(
    dataset: str = "LJ",
    algorithm: str = "SSSP",
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Representation ablation: Δ-CSR overlay vs rebuilding each snapshot.

    Both run the same Direct-Hop schedule; "rebuild" materialises every
    snapshot's full CSR (the mutation-style cost the overlay avoids).
    """
    base_spec = spec if spec is not None else WorkloadSpec()
    workload = build_workload(base_spec.scaled(dataset=dataset))
    decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
    alg = get_algorithm(algorithm)

    overlay_result = DirectHopEvaluator(
        decomp, alg, workload.source, weight_fn=workload.weight_fn
    ).run(keep_values=False)

    # Rebuild variant: converge on Gc, then per snapshot rebuild the full
    # CSR before the incremental pass.
    t0 = time.perf_counter()
    base_csr = decomp.common_csr(workload.weight_fn)
    base_state = static_compute(base_csr, alg, workload.source)
    for index in range(decomp.num_snapshots):
        edges = decomp.snapshot_edges(index)
        full_csr = CSRGraph.from_edge_set(
            edges, decomp.num_vertices, weight_fn=workload.weight_fn
        )
        state = base_state.copy()
        batch = decomp.direct_hop_batch(index)
        src, dst = batch.arrays()
        incremental_additions(
            full_csr, alg, state, src, dst, workload.weight_fn(src, dst)
        )
    rebuild_seconds = time.perf_counter() - t0

    result = ExperimentResult(
        name="ablation_overlay",
        title=f"Ablation — overlay vs rebuild representation ({dataset}, {algorithm})",
        headers=["representation", "seconds"],
        params={"dataset": dataset, "algorithm": algorithm,
                "num_snapshots": base_spec.num_snapshots},
    )
    result.rows.append(["delta-CSR overlay", round(overlay_result.total_seconds, 4)])
    result.rows.append(["rebuild full CSR", round(rebuild_seconds, 4)])
    return result


def ablation_scheduler(
    dataset: str = "LJ",
    algorithm: str = "SSSP",
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Engine-mode ablation: sync vs async vs auto (§4.3 policy)."""
    base_spec = spec if spec is not None else WorkloadSpec()
    workload = build_workload(base_spec.scaled(dataset=dataset))
    decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
    result = ExperimentResult(
        name="ablation_scheduler",
        title=f"Ablation — engine scheduling mode ({dataset}, {algorithm})",
        headers=["mode", "direct_hop_s"],
        params={"dataset": dataset, "algorithm": algorithm,
                "num_snapshots": base_spec.num_snapshots,
                "batch_size": base_spec.batch_size},
    )
    # The first evaluator of a decomposition builds its plan: not a mode's cost.
    DirectHopEvaluator(decomp, get_algorithm(algorithm), workload.source,
                       weight_fn=workload.weight_fn).run(keep_values=False)
    for mode in ("sync", "async", "auto"):
        seconds = DirectHopEvaluator(
            decomp, get_algorithm(algorithm), workload.source,
            weight_fn=workload.weight_fn, mode=mode,
        ).run(keep_values=False).total_seconds
        result.rows.append([mode, round(seconds, 4)])
    return result


def ablation_batch_scale(
    dataset: str = "TTW",
    algorithm: str = "SSSP",
    batch_sizes: Sequence[int] = (75, 250, 750),
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Scale ablation: how batch size shifts the time ordering.

    At the faithful 1/1000 update scaling (batch 75) the per-batch
    interpreter overhead dominates and Direct-Hop's fewer
    stabilisations win on wall clock even though Work-Sharing streams
    fewer additions; as batches grow the per-addition work dominates
    and the orderings converge to the paper's work-dominated regime.
    """
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="ablation_batch_scale",
        title=f"Ablation — batch-size scaling ({dataset}, {algorithm})",
        headers=[
            "batch", "kickstarter_s", "direct_hop_s", "work_sharing_s",
            "dh_additions", "ws_additions",
        ],
        params={"dataset": dataset, "algorithm": algorithm,
                "num_snapshots": base_spec.num_snapshots},
    )
    for batch_size in batch_sizes:
        workload = build_workload(
            base_spec.scaled(dataset=dataset, batch_size=batch_size)
        )
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        ks = _run_kickstarter(workload, algorithm)
        dh = _run_direct_hop(workload, algorithm, decomp)
        ws = _run_work_sharing(workload, algorithm, decomp)
        result.rows.append([
            batch_size, round(ks, 4), round(dh.work_seconds, 4),
            round(ws.work_seconds, 4),
            dh.additions_processed, ws.additions_processed,
        ])
    return result


def ablation_storage(
    datasets: Sequence[str] = ("LJ", "DL", "WEN", "TTW"),
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Storage ablation: the §4.1 space claim, quantified.

    Compares edges (and bytes) stored by (a) one full CSR per snapshot,
    (b) the common graph plus per-snapshot surplus CSRs, and (c) the
    common graph plus the Work-Sharing schedule's batch CSRs (shared
    batches stored once).
    """
    base_spec = spec if spec is not None else WorkloadSpec()
    result = ExperimentResult(
        name="ablation_storage",
        title="Ablation — snapshot storage (edges stored)",
        headers=[
            "graph", "per-snapshot CSRs", "common+surpluses",
            "common+schedule batches", "saving",
        ],
        params={"num_snapshots": base_spec.num_snapshots,
                "batch_size": base_spec.batch_size,
                "edge_scale": base_spec.edge_scale},
    )
    for dataset in datasets:
        workload = build_workload(base_spec.scaled(dataset=dataset))
        decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
        grid = TriangularGrid(decomp)
        schedule = build_schedule(grid)
        naive = decomp.snapshot_storage_edges()
        direct = decomp.storage_edges()
        shared = len(decomp.common) + schedule.cost(grid)
        result.rows.append([
            dataset, naive, direct, shared, f"{naive / shared:.1f}x",
        ])
    result.notes.append(
        "§4.1: 'the representation is space optimal as each edge in the "
        "system only gets represented once'"
    )
    return result


def range_query(
    dataset: str = "LJ",
    algorithm: str = "SSSP",
    window: int = 5,
    spec: Optional[WorkloadSpec] = None,
) -> ExperimentResult:
    """Range-query extension (the paper's future work), in additions streamed.

    The last ``window`` snapshots evaluated by direct hops from their
    own root — grid node ``(first, last)``, whose graph is
    ``ICG(first, last)`` — against the hops a whole-window evaluation
    makes to the same snapshots from the global common graph.
    """
    base_spec = spec if spec is not None else WorkloadSpec()
    workload = build_workload(base_spec.scaled(dataset=dataset))
    decomp = CommonGraphDecomposition.from_evolving(workload.evolving)
    first, last = decomp.num_snapshots - window, decomp.num_snapshots - 1
    rooted = DirectHopEvaluator(
        decomp, get_algorithm(algorithm), workload.source,
        weight_fn=workload.weight_fn, first=first, last=last,
    ).run(keep_values=False)
    from_common = sum(
        len(decomp.direct_hop_batch(i)) for i in range(first, last + 1))
    result = ExperimentResult(
        name="range_query",
        title=f"Extension — range query rooted at the window's ICG vs at Gc "
        f"({dataset}, {algorithm}, last {window} snapshots)",
        headers=["root", "additions"],
        params={"dataset": dataset, "algorithm": algorithm, "window": window,
                "num_snapshots": base_spec.num_snapshots,
                "batch_size": base_spec.batch_size},
    )
    result.rows.append(
        [f"window ICG({first}, {last})", rooted.additions_processed])
    result.rows.append(["global Gc", from_common])
    result.notes.append(
        "the engine roots every walk at ICG(first, last), so the global row "
        "is a count (the window's Direct-Hop batches from Gc), not a run"
    )
    return result


#: Registry used by the CLI harness.
EXPERIMENTS = {
    "figure1": figure1,
    "table4": table4,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "table5": table5,
    "figure11": figure11,
    "ablation_steiner": ablation_steiner,
    "ablation_overlay": ablation_overlay,
    "ablation_scheduler": ablation_scheduler,
    "ablation_batch_scale": ablation_batch_scale,
    "ablation_storage": ablation_storage,
    "range_query": range_query,
}


def run_experiment(name: str, **kwargs: object) -> ExperimentResult:
    """Run a registered experiment by name."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)  # type: ignore[operator]
