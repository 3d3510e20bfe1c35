"""Command-line harness: regenerate the paper's evaluation end to end.

Usage, from the repository root with ``PYTHONPATH=src``::

    python -m benchmarks.paper                     # all experiments, paper profile
    python -m benchmarks.paper --profile ci        # fast smoke profile
    python -m benchmarks.paper table4 figure8      # a subset
    python -m benchmarks.paper --out EXPERIMENTS_RUN.md

Writes each experiment's table to stdout and, with ``--out``, a
Markdown report suitable for diffing against EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence

from benchmarks.paper.experiments import EXPERIMENTS, ExperimentResult
from repro.bench.workloads import PROFILES

__all__ = ["main", "run_all", "profile_kwargs"]

_CI_ALGORITHMS = ("BFS", "SSSP")


def profile_kwargs(name: str, experiment: str) -> Dict[str, object]:
    """Per-experiment keyword overrides implementing a profile.

    The paper profile is every driver's defaults; ``ci`` shrinks the
    workload and the sweeps so the whole evaluation runs in seconds.
    """
    if name != "ci":
        return {}
    spec = PROFILES["ci"]
    sized = {"spec": spec, "algorithms": _CI_ALGORITHMS}
    one_graph = {**sized, "datasets": ("LJ",)}
    return {
        "figure1": {"edge_scale": spec.edge_scale, "repeats": 1,
                    "batch_sizes": (40, 80), "algorithms": _CI_ALGORITHMS},
        "table4": one_graph,
        "figure8": {**sized, "snapshot_counts": (4, 8)},
        "figure9": {**sized, "sweep": ((40, 8), (80, 4))},
        "figure10": {**sized, "ratios": ((60, 20), (20, 60))},
        "table5": one_graph,
        "figure11": sized,
        "ablation_overlay": {"spec": spec},
        "ablation_scheduler": {"spec": spec},
        "ablation_batch_scale": {"spec": spec, "dataset": "LJ",
                                 "batch_sizes": (20, 60)},
        "ablation_storage": {"spec": spec, "datasets": ("LJ",)},
        "range_query": {"spec": spec},
    }.get(experiment, {})


def run_all(
    names: Sequence[str],
    profile: str = "paper",
    stream=None,
) -> List[ExperimentResult]:
    """Run the named experiments under a profile, printing as we go."""
    if stream is None:
        stream = sys.stdout
    results = []
    for name in names:
        kwargs = profile_kwargs(profile, name)
        t0 = time.perf_counter()
        result = EXPERIMENTS[name](**kwargs)  # type: ignore[operator]
        elapsed = time.perf_counter() - t0
        print(result.render(), file=stream)
        print(f"[{name} completed in {elapsed:.1f}s]\n", file=stream)
        results.append(result)
    return results


def write_markdown(results: Sequence[ExperimentResult], path: str, profile: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# CommonGraph reproduction — measured results ({profile} profile)\n\n")
        for result in results:
            handle.write(result.to_markdown())
            handle.write("\n\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help=f"experiments to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument("--profile", choices=sorted(PROFILES), default="paper")
    parser.add_argument("--out", default=None, help="write a Markdown report here")
    args = parser.parse_args(argv)

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
    results = run_all(names, profile=args.profile)
    if args.out:
        write_markdown(results, args.out, args.profile)
        print(f"wrote {args.out}")
    return 0
