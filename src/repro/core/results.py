"""Result container shared by the evolving-graph query evaluators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.triangular_grid import Interval
from repro.kickstarter.engine import EngineCounters
from repro.utils import PhaseTimer

__all__ = ["EvolvingQueryResult"]


@dataclass
class EvolvingQueryResult:
    """Converged per-snapshot values plus cost accounting."""

    strategy: str = ""
    snapshot_values: List[np.ndarray] = field(default_factory=list)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    counters: EngineCounters = field(default_factory=EngineCounters)
    #: Wall seconds of every schedule edge ``(parent, child)``, in the
    #: order the walk ran them.
    edge_seconds: Dict[Tuple[Interval, Interval], float] = field(default_factory=dict)
    #: Total additions streamed (the paper's schedule-cost metric).
    additions_processed: int = 0
    #: Number of incremental stabilisations executed (tree edges).
    stabilisations: int = 0
    #: Schedule nodes found in / absent from the walk's node-state store.
    node_hits: int = 0
    node_misses: int = 0

    @property
    def total_seconds(self) -> float:
        return self.timer.total()

    @property
    def work_seconds(self) -> float:
        """Incremental work only — the one-off convergence on the common
        graph is excluded, matching the paper's Table 4 accounting (the
        from-scratch costs of the baselines are assumed similar and net
        out of the comparison)."""
        return self.timer.total() - self.timer.seconds("initial_compute")

    @property
    def per_hop_seconds(self) -> List[float]:
        """Direct-Hop only: the wall time of each snapshot's independent
        hop, in snapshot order (the star's edges run in that order)."""
        if self.strategy != "direct-hop":
            return []
        return list(self.edge_seconds.values())

    @property
    def critical_path_seconds(self) -> Optional[float]:
        """Longest single hop — the parallel projection of the paper's
        Table 5 — or ``None`` if not a Direct-Hop result."""
        return max(self.per_hop_seconds, default=None)

    def phase_seconds(self) -> Dict[str, float]:
        return self.timer.as_dict()
