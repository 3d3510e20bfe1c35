"""The temporal executor: specs → coalesced TG ranges → aggregates.

The Triangular Grid's core property — one Steiner descent converges
*every* snapshot in a range — makes a batch of temporal questions
cheap if their ranges are evaluated together.  The engine exploits
exactly that:

1. **plan** — resolve each spec against the window (defaults, bounds,
   timestamp → version), collect the snapshot ranges it needs;
2. **evaluate** — coalesce overlapping or adjacent ranges and evaluate
   each *merged* range once through the injected ``evaluate_range``
   callable (the service routes this through its result cache, whose
   live entries lend their snapshots to the
   :class:`~repro.service.planner.MemoizingPlanner`, so repeated
   temporal queries reuse epoch-keyed snapshots like any other
   query); ranges separated by a gap stay separate — the engine never
   scans a snapshot no spec asked for;
3. **aggregate** — slice the per-version value vectors into each
   spec's matrix and reduce with the :mod:`repro.temporal.aggregates`
   kernels.

Accounting is part of the contract: ``ranges_evaluated`` counts TG
descents (one per merged range) and ``snapshots_scanned`` sums their
widths; both feed the ``repro_temporal_*`` metrics that the tests and
the bench assert the coalescing win on.

The engine itself owns no graph state — callers inject
``evaluate_range`` (and optionally ``structural_diff`` for edge-churn
counts and ``version_times`` for timestamp resolution), which is what
lets the service's cached path and the offline
:class:`~repro.evolving.version_control.VersionController` drive the
same planner/aggregate code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.algorithms.base import MonotonicAlgorithm
from repro.errors import ProtocolError
from repro.temporal import aggregates
from repro.temporal.plan import TemporalSpec
from repro.temporal.timeline import TemporalAnswer

__all__ = ["TemporalEngine", "coalesce_ranges"]

#: ``evaluate_range(first, last)`` → one value vector per snapshot.
RangeEvaluator = Callable[[int, int], Sequence[np.ndarray]]


def coalesce_ranges(
    ranges: Sequence[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """Merge overlapping *or adjacent* ranges; never bridge a gap.

    ``[2, 5]`` and ``[4, 8]`` merge (overlap), ``[2, 5]`` and ``[6, 8]``
    merge (adjacent — the union is contiguous, one descent covers it),
    but ``[2, 5]`` and ``[7, 8]`` stay separate: merging them would
    scan snapshot 6, which nobody asked for.
    """
    if not ranges:
        return []
    ordered = sorted(ranges)
    merged = [ordered[0]]
    for first, last in ordered[1:]:
        prev_first, prev_last = merged[-1]
        if first <= prev_last + 1:
            merged[-1] = (prev_first, max(prev_last, last))
        else:
            merged.append((first, last))
    return merged


class TemporalEngine:
    """Execute one batch of temporal specs against an evaluation window."""

    def __init__(
        self,
        *,
        algorithm: MonotonicAlgorithm,
        source: int,
        num_vertices: int,
        window_first: int,
        window_last: int,
        evaluate_range: RangeEvaluator,
        structural_diff: Optional[Callable[[int, int], Any]] = None,
        version_times: Optional[Mapping[int, float]] = None,
    ) -> None:
        if window_first > window_last:
            raise ProtocolError(
                f"empty evaluation window [{window_first}, {window_last}]"
            )
        if not 0 <= source < num_vertices:
            raise ProtocolError(
                f"source {source} out of range [0, {num_vertices})"
            )
        self.algorithm = algorithm
        self.source = source
        self.num_vertices = num_vertices
        self.window_first = window_first
        self.window_last = window_last
        self.evaluate_range = evaluate_range
        self.structural_diff = structural_diff
        self.version_times = version_times

    @classmethod
    def for_controller(
        cls, controller: Any, algorithm: Any, source: int,
        version_times: Optional[Mapping[int, float]] = None,
    ) -> "TemporalEngine":
        """An offline engine over a whole ``VersionController`` history.

        Each merged range still costs one work-sharing evaluation (one
        TG descent); only the service's cross-request caches are
        absent.  ``structural_diff`` is the controller's own ``diff``.
        """
        from repro.algorithms.registry import get_algorithm

        alg = (get_algorithm(algorithm) if isinstance(algorithm, str)
               else algorithm)

        def evaluate_range(first: int, last: int) -> Sequence[np.ndarray]:
            result = controller.evaluate(alg, source, first=first, last=last)
            return result.snapshot_values

        return cls(
            algorithm=alg,
            source=source,
            num_vertices=controller.decomposition.num_vertices,
            window_first=0,
            window_last=controller.num_versions - 1,
            evaluate_range=evaluate_range,
            structural_diff=controller.diff,
            version_times=version_times,
        )

    # -- execution ----------------------------------------------------------
    def run(self, specs: Sequence[TemporalSpec]) -> TemporalAnswer:
        """Answer every spec; one TG descent per coalesced range."""
        if not specs:
            raise ProtocolError("a temporal request needs at least one spec")
        answer = TemporalAnswer(
            algorithm=self.algorithm.name,
            source=self.source,
            window_first=self.window_first,
            window_last=self.window_last,
        )
        with obs.phase_span(
            "temporal", "plan",
            label=f"{self.algorithm.name}:{self.source}",
            specs=len(specs),
        ) as plan_span:
            resolved = [self._resolve(spec) for spec in specs]
            merged = coalesce_ranges(
                [rng for spec in resolved for rng in self._ranges_of(spec)]
            )
            plan_span.annotate(ranges=len(merged))
        values_by_version: Dict[int, np.ndarray] = {}
        with obs.phase_span("temporal", "evaluate", ranges=len(merged)):
            for first, last in merged:
                rows = self.evaluate_range(first, last)
                for offset, row in enumerate(rows):
                    values_by_version[first + offset] = np.asarray(
                        row, dtype=np.float64
                    )
                width = last - first + 1
                answer.ranges_evaluated += 1
                answer.snapshots_scanned += width
                obs.counter_inc("repro_temporal_snapshots_scanned_total",
                                amount=width)
                obs.observe("repro_temporal_range_width", float(width))
        with obs.phase_span("temporal", "aggregate", specs=len(specs)):
            for spec in resolved:
                answer.results.append(
                    self._answer_spec(spec, values_by_version)
                )
                obs.counter_inc("repro_temporal_queries_total",
                                mode=spec.mode)
        return answer

    # -- resolution ---------------------------------------------------------
    def _check_range(self, first: int, last: int) -> None:
        if not self.window_first <= first <= last <= self.window_last:
            raise ProtocolError(
                f"snapshot range [{first}, {last}] outside the window "
                f"[{self.window_first}, {self.window_last}]"
            )

    def _resolve(self, spec: TemporalSpec) -> TemporalSpec:
        """Fill window defaults and check bounds; returns a concrete spec."""
        if spec.vertex is not None and not (
                0 <= spec.vertex < self.num_vertices):
            raise ProtocolError(
                f"vertex {spec.vertex} out of range [0, {self.num_vertices})"
            )
        if spec.mode == "point":
            version = spec.as_of
            if version is None:
                assert spec.as_of_timestamp is not None
                version = self._resolve_timestamp(spec.as_of_timestamp)
            self._check_range(version, version)
            return replace(spec, as_of=version)
        if spec.mode == "diff":
            assert spec.a is not None and spec.b is not None
            self._check_range(min(spec.a, spec.b), max(spec.a, spec.b))
            return spec
        first = self.window_first if spec.first is None else spec.first
        last = self.window_last if spec.last is None else spec.last
        self._check_range(first, last)
        if spec.mode == "rollup":
            assert spec.width is not None
            span = last - first + 1
            if spec.width > span:
                raise ProtocolError(
                    f"rollup width {spec.width} exceeds the range span "
                    f"{span} ([{first}, {last}])"
                )
        return replace(spec, first=first, last=last)

    def _resolve_timestamp(self, timestamp: float) -> int:
        """Largest window version ingested at or before ``timestamp``."""
        if self.version_times is None:
            raise ProtocolError(
                "this evaluation window records no ingest timestamps; "
                "query by 'as_of' version instead"
            )
        best: Optional[int] = None
        for version, stamp in self.version_times.items():
            if (self.window_first <= version <= self.window_last
                    and stamp <= timestamp
                    and (best is None or version > best)):
                best = version
        if best is None:
            raise ProtocolError(
                f"no snapshot ingested at or before timestamp {timestamp}"
            )
        return best

    @staticmethod
    def _ranges_of(spec: TemporalSpec) -> List[Tuple[int, int]]:
        """The snapshot ranges a *resolved* spec needs evaluated."""
        if spec.mode == "point":
            assert spec.as_of is not None
            return [(spec.as_of, spec.as_of)]
        if spec.mode == "diff":
            assert spec.a is not None and spec.b is not None
            return [(spec.a, spec.a), (spec.b, spec.b)]
        assert spec.first is not None and spec.last is not None
        return [(spec.first, spec.last)]

    # -- aggregation ---------------------------------------------------------
    def _answer_spec(
        self, spec: TemporalSpec, values_by_version: Dict[int, np.ndarray],
    ) -> Dict[str, Any]:
        if spec.mode == "point":
            assert spec.as_of is not None
            result: Dict[str, Any] = {
                "mode": "point",
                "version": spec.as_of,
                "values": values_by_version[spec.as_of].copy(),
            }
            if spec.as_of_timestamp is not None:
                result["as_of_timestamp"] = spec.as_of_timestamp
            return result
        if spec.mode == "diff":
            return self._answer_diff(spec, values_by_version)
        assert spec.first is not None and spec.last is not None
        matrix = np.stack([
            values_by_version[version]
            for version in range(spec.first, spec.last + 1)
        ])
        if spec.mode == "timeline":
            assert spec.vertex is not None
            return {
                "mode": "timeline",
                "vertex": spec.vertex,
                "first": spec.first,
                "last": spec.last,
                "values": matrix[:, spec.vertex].copy(),
            }
        if spec.mode == "rollup":
            return self._answer_rollup(spec, matrix)
        return self._answer_aggregate(spec, matrix)

    def _answer_aggregate(
        self, spec: TemporalSpec, matrix: np.ndarray,
    ) -> Dict[str, Any]:
        assert spec.first is not None and spec.last is not None
        result: Dict[str, Any] = {
            "mode": "aggregate",
            "agg": spec.agg,
            "first": spec.first,
            "last": spec.last,
        }
        worst = self.algorithm.worst
        if spec.agg == "min":
            result["values"] = aggregates.temporal_min(matrix)
        elif spec.agg == "max":
            result["values"] = aggregates.temporal_max(matrix)
        elif spec.agg == "mean":
            result["values"] = aggregates.temporal_mean(matrix)
        elif spec.agg in ("argmin", "argmax"):
            kernel = (aggregates.temporal_argmin if spec.agg == "argmin"
                      else aggregates.temporal_argmax)
            result["values"] = kernel(matrix) + spec.first
        elif spec.agg == "first_reachable":
            rows = aggregates.first_reachable(matrix, worst)
            rows[rows >= 0] += spec.first
            result["values"] = rows
        elif spec.agg == "changed_count":
            result["values"] = aggregates.changed_count(matrix)
        else:  # top_volatile — the parser guarantees agg and k
            assert spec.k is not None
            vertices, counts = aggregates.top_volatile(matrix, spec.k)
            result["k"] = spec.k
            result["vertices"] = vertices
            result["counts"] = counts
        return result

    def _answer_diff(
        self, spec: TemporalSpec, values_by_version: Dict[int, np.ndarray],
    ) -> Dict[str, Any]:
        assert spec.a is not None and spec.b is not None
        values_a = values_by_version[spec.a]
        values_b = values_by_version[spec.b]
        worst = self.algorithm.worst
        reach_a = values_a != worst
        reach_b = values_b != worst
        result: Dict[str, Any] = {
            "mode": "diff",
            "a": spec.a,
            "b": spec.b,
            "delta": aggregates.value_delta(values_a, values_b),
            "became_reachable": int((~reach_a & reach_b).sum()),
            "became_unreachable": int((reach_a & ~reach_b).sum()),
            "value_changed": int((values_a != values_b).sum()),
        }
        if self.structural_diff is not None:
            batch = self.structural_diff(spec.a, spec.b)
            result["edge_additions"] = len(batch.additions)
            result["edge_deletions"] = len(batch.deletions)
        return result

    def _answer_rollup(
        self, spec: TemporalSpec, matrix: np.ndarray,
    ) -> Dict[str, Any]:
        assert (spec.vertex is not None and spec.width is not None
                and spec.first is not None and spec.last is not None)
        series = matrix[:, spec.vertex]
        windows = np.lib.stride_tricks.sliding_window_view(
            series, spec.width
        )
        if spec.agg == "min":
            values = windows.min(axis=1)
        elif spec.agg == "max":
            values = windows.max(axis=1)
        elif spec.agg == "mean":
            values = windows.mean(axis=1)
        else:  # changed_count
            if spec.width < 2:
                values = np.zeros(windows.shape[0], dtype=np.float64)
            else:
                values = (windows[:, 1:] != windows[:, :-1]).sum(
                    axis=1
                ).astype(np.float64)
        return {
            "mode": "rollup",
            "vertex": spec.vertex,
            "agg": spec.agg,
            "width": spec.width,
            "first": spec.first,
            "last": spec.last,
            "window_firsts": [
                spec.first + offset for offset in range(windows.shape[0])
            ],
            "values": np.asarray(values, dtype=np.float64),
        }
