"""Crash-recovery and corruption tests for the v2 snapshot store.

The fault plans simulate a crash by failing every attempt at one I/O
operation: the append/create raises mid-flight, leaving whatever the
earlier operations committed — exactly the on-disk state a real crash
at that point would leave (modulo fsync, covered separately).
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    IntegrityError,
    ReproError,
    RetryExhaustedError,
    SnapshotError,
)
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.evolving.store import SnapshotStore
from repro.graph.edgeset import EdgeSet
from repro.testing import FaultPlan, assert_recovers_clean, fault_injection

pytestmark = pytest.mark.faults


def es(*pairs):
    return EdgeSet.from_pairs(list(pairs))


def make_evolving(name="t"):
    base = es((0, 1), (1, 2), (2, 3))
    batches = [
        DeltaBatch(additions=es((3, 4))),
        DeltaBatch(additions=es((4, 5)), deletions=es((0, 1))),
    ]
    return EvolvingGraph(16, base, batches, name=name)


def next_batch():
    return DeltaBatch(additions=es((5, 6)), deletions=es((1, 2)))


def count_append_ops(tmp_path):
    """The I/O-operation trace of one clean append on a fresh store."""
    store = SnapshotStore.create(tmp_path / "probe", make_evolving())
    probe = FaultPlan()
    with fault_injection(probe):
        store.append(next_batch())
    return list(probe.events)


class TestAppendCrashRecovery:
    def test_crash_at_every_io_step(self, tmp_path):
        """Fail every attempt at the Nth I/O op of append, for every N:
        recover() must always return the store to a verify-clean state
        with either the old or the new batch count."""
        ops = count_append_ops(tmp_path)
        assert len(ops) >= 8  # reads, batch write, backup, manifest
        for n in range(len(ops)):
            directory = tmp_path / f"crash{n}"
            store = SnapshotStore.create(directory, make_evolving())
            crash = FaultPlan().fail_io(index=n, times=10_000)
            with fault_injection(crash):
                try:
                    store.append(next_batch())
                    crashed = False
                except (RetryExhaustedError, ReproError):
                    crashed = True
            assert crash.fired_rules(), f"op {n} ({ops[n]}) never exercised"
            report = SnapshotStore.recover_store(directory)
            check = SnapshotStore.verify_store(directory, deep=True)
            assert check.ok, (
                f"crash at op {n} ({ops[n]}): {check.problems}; "
                f"recovery={report.actions}"
            )
            reopened = SnapshotStore(directory)
            assert reopened.num_batches in (2, 3), f"crash at op {n}"
            reopened.load()  # fully readable
            if not crashed:
                # The fault fired after the commit point; the append is
                # durable and recovery must have preserved it.
                assert reopened.num_batches == 3

    def test_torn_append_rolls_forward_when_batch_intact(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        crash = FaultPlan().fail_io(match="write:manifest.json", times=10_000)
        with fault_injection(crash):
            with pytest.raises(RetryExhaustedError):
                store.append(next_batch())
        report = SnapshotStore.verify_store(tmp_path / "s")
        assert not report.ok
        assert any("torn append" in p for p in report.problems)
        recovery = SnapshotStore.recover_store(tmp_path / "s")
        assert any("completed torn append" in a for a in recovery.actions)
        recovered = SnapshotStore(tmp_path / "s")
        assert recovered.num_batches == 3
        assert (5, 6) in recovered.load().snapshot_edges(3)

    def test_torn_append_rolls_back_when_batch_damaged(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        crash = FaultPlan().fail_io(match="write:manifest.json*", times=10_000)
        with fault_injection(crash):
            with pytest.raises(RetryExhaustedError):
                store.append(next_batch())
        # The orphan batch file itself got damaged before the "crash".
        orphan = tmp_path / "s" / "batch_00002.npz"
        orphan.write_bytes(b"not an npz at all")
        recovery = SnapshotStore.recover_store(tmp_path / "s")
        assert any("rolled back torn append" in a for a in recovery.actions)
        recovered = SnapshotStore(tmp_path / "s")
        assert recovered.num_batches == 2
        assert SnapshotStore.verify_store(tmp_path / "s", deep=True).ok

    def test_skipped_fsync_then_torn_page(self, tmp_path):
        """A lost fsync surfaces as a torn (corrupt) batch file after the
        'crash'; verify detects it and recover rolls back cleanly."""
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        plan = FaultPlan().skip_io(match="fsync:*", times=10_000)
        plan.fail_io(match="write:manifest.json", times=10_000)
        with fault_injection(plan):
            with pytest.raises(RetryExhaustedError):
                store.append(next_batch())
        # Simulate the un-flushed page: truncate the orphan batch file.
        orphan = tmp_path / "s" / "batch_00002.npz"
        orphan.write_bytes(orphan.read_bytes()[: orphan.stat().st_size // 2])
        assert_recovers_clean(tmp_path / "s")
        assert SnapshotStore(tmp_path / "s").num_batches == 2

    def test_failed_append_leaves_instance_usable(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        crash = FaultPlan().fail_io(match="write:batch_*", times=10_000)
        with fault_injection(crash):
            with pytest.raises(RetryExhaustedError):
                store.append(next_batch())
        assert store.num_batches == 2  # in-memory state not committed
        store.recover()
        assert store.append(next_batch()) == 2
        assert store.verify(deep=True).ok

    def test_transient_fault_is_retried_transparently(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        plan = FaultPlan().fail_io(match="write:batch_*", times=1)
        with fault_injection(plan):
            index = store.append(next_batch())
        assert index == 2
        assert plan.fired_rules()
        assert store.verify(deep=True).ok


class TestManifestRecovery:
    def test_corrupt_manifest_restored_from_backup(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        store.append(next_batch())
        manifest = tmp_path / "s" / "manifest.json"
        manifest.write_bytes(b'{"format": "garbage"')
        with pytest.raises(ReproError):
            SnapshotStore(tmp_path / "s")
        recovery = SnapshotStore.recover_store(tmp_path / "s")
        assert any("restored manifest" in a for a in recovery.actions)
        # The backup predates the last append; its batch file is intact
        # on disk, so recovery rolls the append forward again.
        recovered = SnapshotStore(tmp_path / "s")
        assert recovered.num_batches == 3
        assert SnapshotStore.verify_store(tmp_path / "s", deep=True).ok

    def test_both_manifests_destroyed_is_unrecoverable(self, tmp_path):
        SnapshotStore.create(tmp_path / "s", make_evolving())
        (tmp_path / "s" / "manifest.json").write_bytes(b"junk")
        (tmp_path / "s" / "manifest.json.bak").write_bytes(b"junk")
        with pytest.raises(IntegrityError, match="unrecoverable"):
            SnapshotStore.recover_store(tmp_path / "s")

    def test_recover_on_clean_store_is_a_noop(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        before = (tmp_path / "s" / "manifest.json").read_bytes()
        report = store.recover()
        assert not report.changed
        assert (tmp_path / "s" / "manifest.json").read_bytes() == before


class TestCreateCrashSafety:
    def test_crash_at_every_io_step_leaves_no_partial_store(self, tmp_path):
        probe = FaultPlan()
        with fault_injection(probe):
            SnapshotStore.create(tmp_path / "probe", make_evolving())
        ops = list(probe.events)
        assert len(ops) >= 6
        for n in range(len(ops)):
            target = tmp_path / f"create{n}"
            crash = FaultPlan().fail_io(index=n, times=10_000)
            with fault_injection(crash):
                try:
                    SnapshotStore.create(target, make_evolving())
                except (RetryExhaustedError, ReproError):
                    pass
            if target.exists():
                # The fault fired after the directory rename (the commit
                # point): the store must be complete and clean.
                assert SnapshotStore.verify_store(target, deep=True).ok
            else:
                # No partial directory leaked; a later create succeeds.
                store = SnapshotStore.create(target, make_evolving())
                assert store.verify(deep=True).ok
            assert not any(
                p.name.startswith(f"create{n}.creating")
                for p in tmp_path.iterdir()
            ), f"staging directory leaked at op {n}"

    def test_create_into_leftover_non_store_dir_is_refused(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / "base.npz").write_bytes(b"orphaned partial data")
        with pytest.raises(SnapshotError, match="not a snapshot store"):
            SnapshotStore.create(target, make_evolving())

    def test_create_into_empty_existing_dir(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        store = SnapshotStore.create(target, make_evolving())
        assert store.verify(deep=True).ok


class TestV1IsRefused:
    def test_a_v1_manifest_is_refused_with_a_clear_error(self, tmp_path):
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        manifest = {
            "format": "repro-snapshot-store-v1",
            "name": store.name,
            "num_vertices": store.num_vertices,
            "num_batches": store.num_batches,
        }
        for name in ("manifest.json", "manifest.json.bak"):
            (tmp_path / "s" / name).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="unsupported store format"):
            SnapshotStore(tmp_path / "s")
        report = SnapshotStore.verify_store(tmp_path / "s")
        assert not report.ok
        assert any("unsupported store format" in problem
                   for problem in report.problems)


class TestAppendComplexity:
    def test_second_append_reads_no_batch_files(self, tmp_path):
        """The cached tip makes appends O(batch): after the first append
        materialises the tip, subsequent appends re-read nothing."""
        store = SnapshotStore.create(tmp_path / "s", make_evolving())
        store.append(next_batch())  # materialises + caches the tip
        trace = FaultPlan()
        with fault_injection(trace):
            store.append(DeltaBatch(additions=es((6, 7))))
        reads = [event for event in trace.events
                 if event.startswith("read:")]
        assert reads == [], f"append re-read files: {reads}"


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    store = SnapshotStore.create(root / "s", make_evolving("prop"))
    store.append(next_batch())
    return store.directory


class TestCorruptionProperty:
    @given(
        file_choice=st.integers(min_value=0, max_value=10**9),
        offset_choice=st.integers(min_value=0, max_value=10**9),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_single_byte_corruption_is_caught(
        self, pristine_store, file_choice, offset_choice, xor
    ):
        with tempfile.TemporaryDirectory() as scratch:
            target = Path(scratch) / "s"
            shutil.copytree(pristine_store, target)
            # store.lock is an empty advisory-lock artifact, not data —
            # there is nothing in it to corrupt or checksum.
            files = sorted(p for p in target.iterdir()
                           if p.is_file() and p.name != "store.lock")
            victim = files[file_choice % len(files)]
            data = bytearray(victim.read_bytes())
            offset = offset_choice % len(data)
            data[offset] ^= xor
            victim.write_bytes(bytes(data))
            report = SnapshotStore.verify_store(target)
            assert not report.ok, (
                f"corruption of {victim.name}@{offset} (xor {xor:#x}) "
                f"went undetected"
            )
