"""The paper's core contribution: CommonGraph decomposition, Triangular
Grid, Steiner schedules, and the Direct-Hop / Work-Sharing evaluators."""

from repro.core.common import CommonGraphDecomposition
from repro.core.direct_hop import DirectHopEvaluator
from repro.core.engine import WorkSharingEvaluator
from repro.core.parallel import (
    ParallelDirectHop,
    ParallelResult,
    ParallelWorkSharing,
    ParallelWorkSharingResult,
)
from repro.core.results import EvolvingQueryResult
from repro.core.schedule import ScheduleTree
from repro.core.steiner import (
    agglomerative_schedule,
    build_schedule,
    direct_hop_tree,
    exact_steiner,
    greedy_steiner,
    halving_schedule,
)
from repro.core.triangular_grid import Interval, TriangularGrid

__all__ = [
    "CommonGraphDecomposition",
    "TriangularGrid",
    "Interval",
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
]
