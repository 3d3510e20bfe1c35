"""Fault-injected tests for the resilient parallel executors.

The acceptance bar: with a fault plan failing 1 of N hops (or edges),
both executors still return vertex values for *all* snapshots,
identical to the fault-free run, with the affected units marked
``retried`` or ``degraded`` in the outcome records.
"""

import pytest

from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.parallel import ParallelDirectHop, ParallelWorkSharing
from repro.graph.weights import HashWeights
from repro.resilience import RetryPolicy
from repro.testing import FaultPlan, fault_injection
from tests.conftest import assert_values_equal

pytestmark = pytest.mark.faults

WF = HashWeights(max_weight=8, seed=7)
ALWAYS = 10_000  # enough "times" to defeat every retry in every pass


@pytest.fixture(scope="module")
def decomp(small_evolving):
    return CommonGraphDecomposition.from_evolving(small_evolving)


@pytest.fixture(scope="module")
def clean_direct_hop(decomp):
    return ParallelDirectHop(
        decomp, get_algorithm("SSSP"), 3, weight_fn=WF
    ).run()


@pytest.fixture(scope="module")
def clean_work_sharing(decomp):
    return ParallelWorkSharing(
        decomp, get_algorithm("SSSP"), 3, weight_fn=WF
    ).run()


def assert_same_values_list(result, clean):
    assert len(result.snapshot_values) == len(clean.snapshot_values)
    for i, (got, want) in enumerate(
        zip(result.snapshot_values, clean.snapshot_values)
    ):
        assert_values_equal(got, want, f"snapshot {i}")


def assert_same_values_dict(result, clean):
    assert sorted(result.snapshot_values) == sorted(clean.snapshot_values)
    for i, want in clean.snapshot_values.items():
        assert_values_equal(result.snapshot_values[i], want, f"snapshot {i}")


class TestParallelDirectHopFaults:
    def test_transient_hop_failure_is_retried(self, decomp, clean_direct_hop):
        plan = FaultPlan().fail_task(match="hop:2", times=1)
        with fault_injection(plan):
            result = ParallelDirectHop(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF
            ).run()
        assert plan.fired_rules()
        assert result.outcomes[2].status == "retried"
        assert result.outcomes[2].attempts == 2
        assert [o.status for i, o in enumerate(result.outcomes) if i != 2] == (
            ["ok"] * (len(result.outcomes) - 1)
        )
        assert result.outcome_counts == {
            "ok": len(result.outcomes) - 1, "retried": 1, "degraded": 0,
        }
        assert_same_values_list(result, clean_direct_hop)

    def test_persistent_hop_failure_degrades(self, decomp, clean_direct_hop):
        plan = FaultPlan().fail_task(match="hop:4", times=ALWAYS)
        with fault_injection(plan):
            result = ParallelDirectHop(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF
            ).run()
        assert result.outcomes[4].status == "degraded"
        assert result.outcomes[4].error is not None
        assert result.outcome_counts["degraded"] == 1
        assert_same_values_list(result, clean_direct_hop)

    def test_custom_retry_policy_attempt_budget(self, decomp):
        plan = FaultPlan().fail_task(match="hop:0", times=3)
        with fault_injection(plan):
            result = ParallelDirectHop(
                decomp, get_algorithm("BFS"), 3, weight_fn=WF
            ).run(
                retry_policy=RetryPolicy(
                    max_attempts=4, base_delay=0.0, max_delay=0.0
                ),
            )
        # 3 injected failures, 4 allowed attempts: the 4th succeeds.
        assert result.outcomes[0].status == "retried"
        assert result.outcomes[0].attempts == 4


class TestParallelWorkSharingFaults:
    def test_single_edge_failure_still_yields_all_values(
        self, decomp, clean_work_sharing
    ):
        plan = FaultPlan().fail_task(match="edge:*", index=0, times=1)
        with fault_injection(plan):
            result = ParallelWorkSharing(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF
            ).run()
        assert plan.fired_rules()
        assert result.outcome_counts["retried"] == 1
        assert result.outcome_counts["degraded"] == 0
        assert_same_values_dict(result, clean_work_sharing)

    def test_persistent_edge_failure_degrades(
        self, decomp, clean_work_sharing
    ):
        # times=2 covers both primary attempts of the first edge only.
        plan = FaultPlan().fail_task(match="edge:*", index=0, times=2)
        with fault_injection(plan):
            result = ParallelWorkSharing(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF
            ).run()
        assert result.outcome_counts["degraded"] == 1
        assert result.outcome_counts["retried"] == 0
        degraded = [o for o in result.edge_outcomes.values()
                    if o.status == "degraded"]
        assert degraded[0].error is not None
        assert_same_values_dict(result, clean_work_sharing)

    def test_every_edge_failing_once_still_converges(
        self, decomp, clean_work_sharing
    ):
        """Worst transient weather: every edge's first attempt fails."""
        num_edges = len(result_edges(decomp))
        plan = FaultPlan()
        for k in range(num_edges):
            plan.fail_task(match="edge:*", index=2 * k, times=1)
        with fault_injection(plan):
            result = ParallelWorkSharing(
                decomp, get_algorithm("SSSP"), 3, weight_fn=WF
            ).run()
        assert result.outcome_counts["ok"] == 0
        assert_same_values_dict(result, clean_work_sharing)


def result_edges(decomp):
    """The schedule edges a default work-sharing run will execute."""
    from repro.core.steiner import build_schedule
    from repro.core.triangular_grid import TriangularGrid

    return list(build_schedule(TriangularGrid(decomp), "work-sharing").edges())
