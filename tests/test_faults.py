"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.faults import (
    FaultPlan,
    InjectedFault,
    corrupt_bytes,
    io_check,
    service_check,
)

pytestmark = pytest.mark.faults


class TestInactive:
    def test_io_check_is_noop(self):
        assert io_check("write", "anything") is True

    def test_service_check_is_noop(self):
        service_check("query", 3)  # no raise


class TestIOFaults:
    def test_fail_nth_operation(self):
        plan = FaultPlan().fail_io(index=1)
        with plan.active():
            assert io_check("write", "a") is True
            with pytest.raises(InjectedFault, match="write:b"):
                io_check("write", "b")
            assert io_check("write", "c") is True
        assert plan.events == ["write:a", "write:b", "write:c"]

    def test_match_pattern_counts_only_matching_ops(self):
        plan = FaultPlan().fail_io(index=1, match="fsync:*")
        with plan.active():
            io_check("write", "a")
            io_check("fsync", "a")      # fsync ordinal 0: passes
            io_check("write", "b")
            with pytest.raises(InjectedFault):
                io_check("fsync", "b")  # fsync ordinal 1: fires

    def test_times_window(self):
        plan = FaultPlan().fail_io(index=0, times=2)
        with plan.active():
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    io_check("write", "x")
            assert io_check("write", "x") is True

    def test_skip_returns_false(self):
        plan = FaultPlan().skip_io(match="fsync:*", times=3)
        with plan.active():
            assert io_check("fsync", "f") is False
            assert io_check("write", "f") is True

    def test_injected_fault_is_oserror(self):
        assert issubclass(InjectedFault, OSError)


class TestServiceFaults:
    def test_fail_specific_operation(self):
        plan = FaultPlan().fail_service(match="query:2").fail_io(match="query:*")
        with plan.active():
            service_check("query", 0)   # the io rule never sees a service label
            service_check("query", 1)
            with pytest.raises(InjectedFault, match="query:2"):
                service_check("query", 2)
            service_check("query", 2)  # only the first occurrence fires


class TestReplay:
    def test_reset_replays_identically(self):
        plan = FaultPlan().fail_io(index=2)

        def drive():
            outcomes = []
            for name in "abcd":
                try:
                    io_check("write", name)
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fault")
            return outcomes, list(plan.events)

        with plan.active():
            first = drive()
        plan.reset()
        with plan.active():
            second = drive()
        assert first == second
        assert first[0] == ["ok", "ok", "fault", "ok"]

    def test_fired_rules(self):
        plan = FaultPlan().fail_io(index=0).fail_io(index=99)
        with plan.active():
            with pytest.raises(InjectedFault):
                io_check("write", "x")
        assert len(plan.fired_rules()) == 1

    def test_nested_activation_restores_previous(self):
        outer = FaultPlan().fail_io(index=0, times=99)
        inner = FaultPlan()  # no rules
        with outer.active():
            with inner.active():
                assert io_check("write", "x") is True
            with pytest.raises(InjectedFault):
                io_check("write", "x")
        assert io_check("write", "x") is True


class TestCorruptBytes:
    def test_deterministic_and_mutating(self, tmp_path):
        path = tmp_path / "data.bin"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        mutations = corrupt_bytes(path, seed=5)
        assert len(mutations) == 1
        offset, old, new = mutations[0]
        assert old != new
        corrupted = path.read_bytes()
        assert corrupted != original
        assert corrupted[offset] == new
        # Same seed, same mutation.
        path.write_bytes(original)
        assert corrupt_bytes(path, seed=5) == mutations

    def test_plan_seed_drives_corruption(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"0123456789")
        a = FaultPlan(seed=11).corrupt(path)
        path.write_bytes(b"0123456789")
        b = FaultPlan(seed=11).corrupt(path)
        assert a == b

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_bytes(path)
