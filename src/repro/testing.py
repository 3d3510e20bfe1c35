"""Public testing utilities.

Downstream users writing custom :class:`~repro.MonotonicAlgorithm`
subclasses (or alternative engines) need a trustworthy oracle to test
against.  This module exposes the same one the package's own test suite
uses: a deliberately naive full-sweep fixpoint engine that is obviously
correct for monotonic algorithms, plus assertion helpers.

Example::

    from repro.testing import reference_compute_edgeset, assert_values_equal

    got = repro.static_compute(csr, MyAlgorithm(), source).values
    want = reference_compute_edgeset(edges, n, MyAlgorithm(), source, weight_fn)
    assert_values_equal(got, want, "MyAlgorithm")

It also re-exports the deterministic fault-injection harness
(:mod:`repro.faults`), so robustness tests against crashes, corruption
and task failure read naturally::

    from repro.testing import FaultPlan, fault_injection

    plan = FaultPlan(seed=3).fail_io(match="write:manifest.json", times=99)
    with fault_injection(plan):
        ...  # store.append "crashes" mid-write
    assert_recovers_clean(store.directory)

And the observability teardown: the :mod:`repro.obs` runtime is
process-global, so tests that :func:`repro.obs.configure` it must call
:func:`reset_observability` afterwards (a fixture finalizer is the
natural place).  :class:`~repro.obs.clock.FakeClock` is re-exported for
deterministic span durations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple, Union

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.faults import FaultPlan, InjectedFault, active_plan, corrupt_bytes
from repro.graph.edgeset import EdgeSet
from repro.graph.weights import WeightFn
from repro.obs.clock import FakeClock

__all__ = [
    "reference_compute",
    "reference_compute_edgeset",
    "assert_values_equal",
    "assert_monotonic",
    # fault-injection harness
    "FaultPlan",
    "InjectedFault",
    "fault_injection",
    "corrupt_bytes",
    "assert_recovers_clean",
    # observability
    "FakeClock",
    "reset_observability",
]

#: Context manager activating a :class:`FaultPlan` for a scope.
fault_injection = active_plan


def reset_observability() -> None:
    """Tear the process-global observability runtime down (for tests).

    Disables the :mod:`repro.obs` runtime installed by
    :func:`repro.obs.configure`, so one test's instrumentation cannot
    leak into the next.
    """
    from repro import obs

    obs.disable()


def reference_compute(
    edges: Iterable[Tuple[int, int, float]],
    num_vertices: int,
    alg: MonotonicAlgorithm,
    source: int,
) -> np.ndarray:
    """Ground-truth vertex values by naive fixpoint iteration.

    Bellman-Ford-style sweeps over the full edge list until no value
    changes.  Exponentially dumber than the real engines and exact for
    exactly that reason.
    """
    values = [alg.worst] * num_vertices
    values[source] = alg.source_value
    edge_list: List[Tuple[int, int, float]] = list(edges)
    changed = True
    while changed:
        changed = False
        for u, v, w in edge_list:
            proposal = float(
                alg.proposals(np.asarray([values[u]]), np.asarray([w]))[0]
            )
            if bool(alg.better(np.asarray([proposal]), np.asarray([values[v]]))[0]):
                values[v] = proposal
                changed = True
    return np.asarray(values, dtype=np.float64)


def reference_compute_edgeset(
    edges: EdgeSet,
    num_vertices: int,
    alg: MonotonicAlgorithm,
    source: int,
    weight_fn: WeightFn,
) -> np.ndarray:
    """Reference values for an edge set with deterministic weights."""
    src, dst = edges.arrays()
    weights = weight_fn(src, dst)
    triples = zip(src.tolist(), dst.tolist(), weights.tolist())
    return reference_compute(triples, num_vertices, alg, source)


def assert_values_equal(a: np.ndarray, b: np.ndarray, context: str = "") -> None:
    """Assert two vertex-value arrays are identical, with a useful diff."""
    __tracebackhide__ = True
    if not np.array_equal(a, b):
        diff = np.flatnonzero(a != b)
        raise AssertionError(
            f"{context}: values differ at {diff[:10]} "
            f"(a={a[diff[:10]]}, b={b[diff[:10]]})"
        )


def assert_recovers_clean(directory: Union[str, Path]) -> None:
    """Assert a (possibly torn) store recovers to a verify-clean state.

    Runs :meth:`SnapshotStore.recover_store` then a deep
    :meth:`SnapshotStore.verify_store`, raising ``AssertionError`` with
    the surviving problems if recovery was insufficient.
    """
    __tracebackhide__ = True
    from repro.evolving.store import SnapshotStore

    SnapshotStore.recover_store(directory)
    report = SnapshotStore.verify_store(directory, deep=True)
    if not report.ok:
        raise AssertionError(
            f"{directory}: store not clean after recovery: {report.problems}"
        )


def assert_monotonic(
    alg: MonotonicAlgorithm,
    weights: Iterable[float] = (1.0, 2.0, 5.0, 64.0),
    probes: Iterable[float] = (0.0, 0.5, 1.0, 3.0, 10.0),
) -> None:
    """Assert the algorithm's edge function satisfies the monotonicity
    contract on a grid of probe values: a better source value never
    yields a worse proposal.

    Raises ``AssertionError`` with the violating combination otherwise.
    """
    probe_list = sorted(probes)
    for w in weights:
        for lo, hi in zip(probe_list, probe_list[1:]):
            better_in = lo if alg.direction == "min" else hi
            worse_in = hi if alg.direction == "min" else lo
            p_better = alg.proposals(np.asarray([better_in]), np.asarray([w]))
            p_worse = alg.proposals(np.asarray([worse_in]), np.asarray([w]))
            if bool(alg.better(p_worse, p_better)[0]):
                raise AssertionError(
                    f"{alg.name}: not monotonic at weight={w}: "
                    f"val {worse_in} -> proposal {p_worse[0]} beats "
                    f"val {better_in} -> proposal {p_better[0]}"
                )
