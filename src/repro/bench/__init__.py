"""Seeded evolving-graph workloads and table/chart rendering.

The paper's evaluation itself lives outside the library, in
``benchmarks/paper`` (``python -m benchmarks.paper``).
"""

from repro.bench.reporting import (
    format_seconds,
    format_speedup,
    render_markdown_table,
    render_table,
)
from repro.bench.workloads import (
    PROFILES,
    Workload,
    WorkloadSpec,
    build_workload,
    pick_source,
)

__all__ = [
    "WorkloadSpec",
    "Workload",
    "PROFILES",
    "build_workload",
    "pick_source",
    "render_table",
    "render_markdown_table",
    "format_seconds",
    "format_speedup",
]
