"""The naive oracle: materialise the edge set, build a CSR, run static.

Every value vector the benchmark verifies is compared bit for bit
(``np.array_equal``) with "the edge set the generator tracked ->
``CSRGraph.from_edge_set`` -> ``static_compute``" — no decomposition,
no grid, no cache, no overlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.graph.csr import CSRGraph
from repro.graph.edgeset import EdgeSet
from repro.kickstarter.engine import static_compute

from workloads import WF, Expect, TipModel

__all__ = ["Recorded", "Oracle", "versions_to_check"]


@dataclass
class Recorded:
    """The part of one reply kept for verification after the timed loop."""

    index: int
    op: Dict
    expect: Expect
    #: version -> what the program answered for it (a full value vector,
    #: or for a temporal timeline the single vertex's value).
    answers: Dict[int, np.ndarray]


def versions_to_check(first: int, last: int, index: int) -> List[int]:
    """The range's last snapshot plus one other, picked by op index."""
    if first == last:
        return [last]
    return [last, first + (index * 7) % (last - first)]


class Oracle:
    def __init__(self, model: TipModel) -> None:
        self._model = model
        # CSRs by edge-set identity: read-only workloads check the same
        # few snapshots over and over.  The set is kept alive alongside.
        self._csr: Dict[int, Tuple[EdgeSet, CSRGraph]] = {}

    def values(self, edges: EdgeSet, algorithm: str,
               source: int) -> np.ndarray:
        cached = self._csr.get(id(edges))
        if cached is None:
            cached = (edges, CSRGraph.from_edge_set(
                edges, self._model.num_vertices, weight_fn=WF))
            self._csr[id(edges)] = cached
        return static_compute(cached[1], get_algorithm(algorithm),
                              source).values

    def mismatches(self, recorded: Sequence[Recorded]) -> List[str]:
        """One line per recorded answer that differs from the oracle."""
        problems: List[str] = []
        for item in recorded:
            op = item.op
            for version, answer in sorted(item.answers.items()):
                truth = self.values(
                    self._model.edges_at(version, item.expect),
                    op["algorithm"], op["source"],
                )
                if op["type"] == "temporal":
                    truth = truth[op["queries"][0]["vertex"]]
                if not np.array_equal(answer, truth):
                    problems.append(
                        f"op {item.index} {op['type']} {op['algorithm']} "
                        f"source={op['source']} version={version}: reply "
                        f"differs from static_compute on the tracked edges"
                    )
        return problems
