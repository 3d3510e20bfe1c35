"""Directory-backed persistent storage for evolving graphs.

Layout (one directory per evolving graph)::

    store/
      manifest.json        # format, shape, per-file checksums, tip digest
      manifest.json.bak    # previous manifest (recovery redundancy)
      base.npz             # snapshot 0 edge codes
      batch_00000.npz      # Δ+ / Δ− codes of batch 0
      batch_00001.npz
      ...

Mirrors the paper's storage organisation (§4.1): the graph is kept as
a base plus Δ batches, so new snapshots are appended as one small file
and nothing existing is rewritten.  Batches load lazily — opening a
store reads only the manifest.

Format v2 makes the store crash-safe and self-verifying:

* **Checksums** — the manifest records a SHA-256 digest of every data
  file plus a digest/edge-count of the *tip* (the newest snapshot's
  edge set).  Every read verifies; :meth:`SnapshotStore.verify` audits
  the whole directory.  The manifest carries a self-checksum over its
  canonical JSON, so any byte of any store file is covered.
* **Atomic writes** — every file is written tmp + flush + fsync +
  ``os.replace`` and every write is retried under
  :data:`IO_RETRY_POLICY`.  ``append`` orders writes (batch file, then
  manifest backup, then manifest) so a crash at any point leaves either
  the old state or a *torn append*: an orphan batch file the manifest
  does not reference yet.
* **Recovery** — :meth:`SnapshotStore.recover` deterministically rolls
  a torn append forward (if the orphan batch is intact and applies
  cleanly to the tip) or back (otherwise), restores the manifest from
  its backup when corrupted, truncates to the longest verifiable batch
  prefix, and rewrites a clean v2 manifest.

A manifest in any other format (including the pre-integrity v1) is
refused with ``SnapshotError: unsupported store format``.

The cached tip (checksum-verified on first materialisation) makes
``append`` O(batch · log tip) per call instead of replaying every batch
from ``base.npz`` on every append.

All I/O hooks into :mod:`repro.faults`, so crash-recovery behaviour is
testable on demand (see ``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

try:  # advisory append locking (POSIX only; a no-op elsewhere)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro import faults, obs
from repro.errors import IntegrityError, ReproError, SnapshotError
from repro.evolving.delta import DeltaBatch
from repro.evolving.snapshots import EvolvingGraph
from repro.graph.edgeset import EdgeSet
from repro.resilience import RetryPolicy, retry_call

__all__ = [
    "SnapshotStore",
    "VerifyReport",
    "RecoveryReport",
    "IO_RETRY_POLICY",
]

_FORMAT_V2 = "repro-snapshot-store-v2"
_MANIFEST = "manifest.json"
_MANIFEST_BAK = "manifest.json.bak"
_LOCK_FILE = "store.lock"
_V2_KEYS = ("format", "name", "num_vertices", "num_batches", "checksums",
            "tip_edge_count", "tip_checksum")

#: Retry policy for all store I/O; transient failures (including
#: injected ones) are retried with exponential backoff.
IO_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.002, multiplier=2.0, max_delay=0.05,
    retry_on=(OSError,),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edges_checksum(edges: EdgeSet) -> str:
    """Digest of an edge set: SHA-256 over its sorted int64 codes."""
    codes = np.ascontiguousarray(edges.codes, dtype=np.int64)
    return _sha256(codes.tobytes())


def _canonical(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, ASCII-only.

    Compactness matters for integrity: with no inter-token whitespace,
    every byte of the file is semantically significant, so the
    self-checksum catches *any* single-byte corruption.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (best effort; not available everywhere)."""
    if not faults.io_check("fsync", directory.name):
        return
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp + flush + fsync + replace."""
    tmp = path.with_name(path.name + ".tmp")
    if faults.io_check("write", path.name):
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if faults.io_check("fsync", path.name):
                os.fsync(handle.fileno())
    if faults.io_check("replace", path.name):
        os.replace(tmp, path)
        _fsync_dir(path.parent)


def _write_file(path: Path, data: bytes) -> None:
    retry_call(_atomic_write_bytes, path, data, policy=IO_RETRY_POLICY,
               label=f"write {path.name}")


def _read_file(path: Path) -> bytes:
    if not path.is_file():
        raise SnapshotError(f"store is missing {path.name}")

    def _read() -> bytes:
        faults.io_check("read", path.name)
        return path.read_bytes()

    return retry_call(_read, policy=IO_RETRY_POLICY,
                      label=f"read {path.name}")


def _npz_bytes(**arrays: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _parse_manifest(raw: bytes, context: str) -> dict:
    """Parse and integrity-check manifest bytes."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"{context}: manifest is corrupt ({exc})") from exc
    if not isinstance(doc, dict):
        raise IntegrityError(f"{context}: manifest is not a JSON object")
    fmt = doc.get("format")
    if fmt != _FORMAT_V2:
        raise SnapshotError(f"{context}: unsupported store format {fmt!r}")
    payload = {key: value for key, value in doc.items()
               if key != "manifest_checksum"}
    missing = [key for key in _V2_KEYS if key not in payload]
    if missing:
        raise IntegrityError(f"{context}: manifest missing fields {missing}")
    if doc.get("manifest_checksum") != _sha256(_canonical(payload)):
        raise IntegrityError(f"{context}: manifest checksum mismatch")
    return payload


def _manifest_bytes(payload: dict) -> bytes:
    body = dict(payload)
    body["manifest_checksum"] = _sha256(_canonical(payload))
    return _canonical(body)


@dataclass
class VerifyReport:
    """Outcome of a store integrity audit (:meth:`SnapshotStore.verify`).

    ``ok`` is true when no problems were found.  ``problems`` are
    integrity violations (corruption, missing files, torn appends).
    """

    directory: str
    format_version: int = 0
    files_checked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.problems)} problem(s)"
        return (f"VerifyReport({self.directory!r}, v{self.format_version}, "
                f"{self.files_checked} files, {state})")


@dataclass
class RecoveryReport:
    """Actions taken by :meth:`SnapshotStore.recover`.

    An empty ``actions`` list means the store was already consistent
    and nothing was touched.  ``num_batches`` is the batch count after
    recovery.
    """

    directory: str
    num_batches: int = 0
    actions: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.actions)

    def __repr__(self) -> str:
        return (f"RecoveryReport({self.directory!r}, "
                f"batches={self.num_batches}, actions={len(self.actions)})")


class SnapshotStore:
    """Append-only on-disk store of a base snapshot plus delta batches."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        if not (self.directory / _MANIFEST).is_file():
            raise SnapshotError(f"{self.directory} is not a snapshot store")
        payload = _parse_manifest(
            _read_file(self.directory / _MANIFEST), str(self.directory)
        )
        self.name: str = payload["name"]
        self.num_vertices: int = int(payload["num_vertices"])
        self._num_batches: int = int(payload["num_batches"])
        self._checksums: Dict[str, str] = dict(payload["checksums"])
        self._tip_edge_count: int = payload["tip_edge_count"]
        self._tip_checksum: str = payload["tip_checksum"]
        self._tip_cache: Optional[EdgeSet] = None
        self._manifest_stat = self._stat_manifest()

    # -- creation -----------------------------------------------------------
    @classmethod
    def create(
        cls, directory: Union[str, Path], evolving: EvolvingGraph
    ) -> "SnapshotStore":
        """Persist an evolving graph into a new store directory.

        The store is assembled in a staging directory and renamed into
        place as the final step, so a failure at any point (including an
        injected one) leaves no partial store behind — the target either
        does not exist or is complete.
        """
        directory = Path(directory)
        if directory.exists():
            if (directory / _MANIFEST).exists():
                raise SnapshotError(f"{directory} already contains a store")
            if any(directory.iterdir()):
                raise SnapshotError(
                    f"{directory} exists and is not a snapshot store"
                )
            directory.rmdir()
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.with_name(f"{directory.name}.creating-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            checksums: Dict[str, str] = {}
            base = evolving.snapshot_edges(0)
            checksums["base.npz"] = cls._write_npz(
                staging / "base.npz", codes=base.codes
            )
            tip = base
            for index, batch in enumerate(evolving.batches):
                name = cls._batch_name(index)
                checksums[name] = cls._write_npz(
                    staging / name,
                    additions=batch.additions.codes,
                    deletions=batch.deletions.codes,
                )
                tip = batch.apply(tip, strict=False)
            payload = cls._payload(
                name=evolving.name,
                num_vertices=evolving.num_vertices,
                num_batches=len(evolving.batches),
                checksums=checksums,
                tip=tip,
            )
            cls._write_manifest(staging, payload)

            def commit() -> None:
                if faults.io_check("replace", directory.name):
                    os.replace(staging, directory)
                    _fsync_dir(directory.parent)

            retry_call(commit, policy=IO_RETRY_POLICY,
                       label=f"commit {directory.name}")
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return cls(directory)

    @staticmethod
    def _batch_name(index: int) -> str:
        return f"batch_{index:05d}.npz"

    @classmethod
    def _batch_path(cls, directory: Path, index: int) -> Path:
        return directory / cls._batch_name(index)

    @staticmethod
    def _write_npz(path: Path, **arrays: np.ndarray) -> str:
        """Atomically write an .npz file; returns its SHA-256 digest."""
        data = _npz_bytes(**arrays)
        _write_file(path, data)
        return _sha256(data)

    @staticmethod
    def _payload(
        name: str,
        num_vertices: int,
        num_batches: int,
        checksums: Dict[str, str],
        tip: EdgeSet,
    ) -> dict:
        return {
            "format": _FORMAT_V2,
            "name": name,
            "num_vertices": int(num_vertices),
            "num_batches": int(num_batches),
            "checksums": dict(sorted(checksums.items())),
            "tip_edge_count": len(tip),
            "tip_checksum": _edges_checksum(tip),
        }

    @staticmethod
    def _write_manifest(directory: Path, payload: dict,
                        backup_current: bool = False) -> None:
        """Write the manifest atomically, optionally preserving the old one.

        During ``append`` the previous manifest is first copied to
        ``manifest.json.bak`` so that a later corruption of the live
        manifest is recoverable.
        """
        path = directory / _MANIFEST
        if backup_current and path.is_file():
            _write_file(directory / _MANIFEST_BAK, path.read_bytes())
        data = _manifest_bytes(payload)
        _write_file(path, data)
        if not backup_current:
            # Fresh store: seed the backup with the same content so
            # recovery always has a second copy to fall back on.
            _write_file(directory / _MANIFEST_BAK, data)

    # -- shape ----------------------------------------------------------------
    @property
    def num_batches(self) -> int:
        return self._num_batches

    @property
    def num_snapshots(self) -> int:
        return self._num_batches + 1

    @property
    def format_version(self) -> int:
        """The on-disk format generation (2: checksummed, crash-safe)."""
        return 2

    # -- reading ----------------------------------------------------------------
    def _verified_read(self, name: str) -> bytes:
        """Read a data file, verifying its recorded checksum."""
        data = _read_file(self.directory / name)
        if _sha256(data) != self._checksums.get(name):
            raise IntegrityError(
                f"{self.directory}: {name} failed checksum verification "
                f"(run SnapshotStore.recover)"
            )
        return data

    def base_edges(self) -> EdgeSet:
        with np.load(io.BytesIO(self._verified_read("base.npz"))) as data:
            return EdgeSet(data["codes"])

    def read_batch(self, index: int) -> DeltaBatch:
        if not 0 <= index < self._num_batches:
            raise SnapshotError(
                f"batch {index} out of range [0, {self._num_batches})"
            )
        data = self._verified_read(self._batch_name(index))
        with np.load(io.BytesIO(data)) as npz:
            return DeltaBatch(
                additions=EdgeSet(npz["additions"]),
                deletions=EdgeSet(npz["deletions"]),
            )

    def iter_batches(self) -> Iterator[DeltaBatch]:
        for index in range(self._num_batches):
            yield self.read_batch(index)

    def load(self) -> EvolvingGraph:
        """Materialise the full evolving graph in memory."""
        return EvolvingGraph(
            self.num_vertices,
            self.base_edges(),
            list(self.iter_batches()),
            name=self.name,
        )

    # -- appending ------------------------------------------------------------
    @contextmanager
    def _append_lock(self) -> Iterator[None]:
        """Advisory cross-process exclusive lock for appends.

        Two writers to the same directory (say an ingesting service and
        a CLI) must not interleave the batch-file / manifest write pair,
        or the second writer clobbers the first's batch and the tip
        digest no longer matches the data.  ``flock`` on a dedicated
        lock file serialises them; on platforms without ``fcntl`` the
        lock degrades to a no-op (single-writer discipline applies).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        fd = os.open(self.directory / _LOCK_FILE,
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _stat_manifest(self) -> Optional[Tuple[int, int, int]]:
        """The manifest's change signature (inode, size, mtime_ns).

        Atomic manifest replacement creates a new inode, so any write by
        any handle — this one or another process's — changes the
        signature.
        """
        try:
            stat = os.stat(self.directory / _MANIFEST)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _refresh_if_stale(self) -> None:
        """Re-read the manifest if another handle appended since we did.

        Called under the append lock: a second process may have advanced
        the store while this handle's in-memory state (batch count, tip
        cache) still reflects the old manifest.  Appending from stale
        state would overwrite the newest batch file, so resynchronise
        first.  Gated on the manifest's stat signature, so the
        single-writer fast path stays read-free (appends remain
        O(batch), not O(history)).
        """
        if self._stat_manifest() == self._manifest_stat:
            return
        try:
            payload = _parse_manifest(
                _read_file(self.directory / _MANIFEST), str(self.directory)
            )
        except ReproError:
            return  # damaged manifest: let the normal append path raise
        if (int(payload["num_batches"]) != self._num_batches
                or payload["tip_checksum"] != self._tip_checksum):
            self.__init__(self.directory)
        else:
            self._manifest_stat = self._stat_manifest()

    def refresh(self) -> int:
        """Catch up with other handles' appends; :attr:`num_snapshots`.
        An unchanged manifest costs one ``stat``, no lock."""
        if self._stat_manifest() != self._manifest_stat:
            with self._append_lock():
                self._refresh_if_stale()
        return self.num_snapshots

    def _tip(self) -> EdgeSet:
        """The newest snapshot's edge set, cached after first use.

        The first materialisation replays the batches once and checks
        the result against the manifest's tip digest; every subsequent
        ``append`` updates the cache incrementally in O(batch).
        """
        if self._tip_cache is None:
            tip = self.base_edges()
            for batch in self.iter_batches():
                tip = batch.apply(tip, strict=False)
            if (len(tip) != self._tip_edge_count
                    or _edges_checksum(tip) != self._tip_checksum):
                raise IntegrityError(
                    f"{self.directory}: tip digest mismatch — store state "
                    f"is inconsistent (run SnapshotStore.recover)"
                )
            self._tip_cache = tip
        return self._tip_cache

    def append(self, batch: DeltaBatch) -> int:
        """Append one batch (one new snapshot); returns its batch index.

        Validates the batch against the cached tip before committing
        anything, so a bad batch leaves the store untouched.  The batch
        file is written (atomically) before the manifest references it;
        a crash in between leaves a torn append that
        :meth:`recover` resolves deterministically.

        Appends are serialised across processes by an advisory file
        lock, and the handle resynchronises with the on-disk manifest
        before writing, so two handles on the same directory cannot
        interleave appends or clobber each other's batches.
        """
        with obs.phase_span("store", "append") as span:
            with self._append_lock():
                index = self._append_locked(batch)
            span.annotate(index=index, batch_size=batch.size)
            obs.counter_inc("repro_store_appends_total")
        return index

    def _append_locked(self, batch: DeltaBatch) -> int:
        self._refresh_if_stale()
        tip = self._tip()
        new_tip = batch.apply(tip, strict=True)  # raises DeltaError if malformed
        if batch.additions.max_vertex() >= self.num_vertices or (
            batch.deletions.max_vertex() >= self.num_vertices
        ):
            raise SnapshotError("batch references vertex out of range")
        index = self._num_batches
        name = self._batch_name(index)
        checksums = dict(self._checksums)
        checksums[name] = self._write_npz(
            self.directory / name,
            additions=batch.additions.codes,
            deletions=batch.deletions.codes,
        )
        payload = self._payload(
            name=self.name,
            num_vertices=self.num_vertices,
            num_batches=index + 1,
            checksums=checksums,
            tip=new_tip,
        )
        self._write_manifest(self.directory, payload,
                             backup_current=(self.directory / _MANIFEST).is_file())
        # Commit in-memory state only after both writes have succeeded.
        self._manifest_stat = self._stat_manifest()
        self._checksums = checksums
        self._num_batches = index + 1
        self._tip_cache = new_tip
        self._tip_edge_count = payload["tip_edge_count"]
        self._tip_checksum = payload["tip_checksum"]
        return index

    # -- integrity ------------------------------------------------------------
    def verify(self, deep: bool = False) -> VerifyReport:
        """Audit this store; see :meth:`verify_store`."""
        return type(self).verify_store(self.directory, deep=deep)

    @classmethod
    def verify_store(cls, directory: Union[str, Path],
                     deep: bool = False) -> VerifyReport:
        """Audit a store directory without requiring it to open cleanly.

        Checks the manifest's self-checksum, every data file against its
        recorded digest, the manifest backup's integrity, and flags
        leftover temporary files and orphan batch files (torn appends).
        With ``deep=True`` it additionally replays all batches strictly
        and checks the tip digest.  Reads bypass the fault-injection
        hooks: verification must stay dependable while faults are
        active.
        """
        directory = Path(directory)
        report = VerifyReport(directory=str(directory))
        manifest_path = directory / _MANIFEST
        if not manifest_path.is_file():
            report.problems.append(f"{directory} is not a snapshot store")
            return report
        try:
            payload = _parse_manifest(manifest_path.read_bytes(), str(directory))
        except ReproError as exc:
            report.problems.append(str(exc))
            payload = None
        if payload is not None:
            report.format_version = 2
            cls._verify_files(directory, payload, report)
            if deep and not report.problems:
                cls._verify_deep(directory, payload, report)
        bak = directory / _MANIFEST_BAK
        if bak.is_file():
            try:
                _parse_manifest(bak.read_bytes(), f"{directory} (backup)")
            except ReproError as exc:
                report.problems.append(f"manifest backup corrupt: {exc}")
        return report

    @classmethod
    def _verify_files(cls, directory: Path, payload: dict,
                      report: VerifyReport) -> None:
        num_batches = int(payload["num_batches"])
        checksums = payload["checksums"]
        expected = ["base.npz"] + [cls._batch_name(i) for i in range(num_batches)]
        for name in expected:
            path = directory / name
            if not path.is_file():
                report.problems.append(f"missing {name}")
                continue
            report.files_checked += 1
            recorded = checksums.get(name)
            if recorded is None:
                report.problems.append(f"no checksum recorded for {name}")
            elif _sha256(path.read_bytes()) != recorded:
                report.problems.append(f"checksum mismatch: {name}")
        for name in sorted(checksums):
            if name not in expected:
                report.problems.append(
                    f"checksum recorded for unknown file {name}"
                )
        for path in sorted(directory.glob("*.tmp")):
            report.problems.append(f"leftover temporary file {path.name}")
        for path in sorted(directory.glob("batch_*.npz")):
            index = cls._parse_batch_index(path.name)
            if index is None or index >= num_batches:
                report.problems.append(
                    f"orphan batch file {path.name} (torn append?)"
                )

    @classmethod
    def _verify_deep(cls, directory: Path, payload: dict,
                     report: VerifyReport) -> None:
        num_vertices = int(payload["num_vertices"])
        try:
            tip = cls._load_edges(directory / "base.npz", "codes")
            for index in range(int(payload["num_batches"])):
                batch = cls._load_batch_file(
                    cls._batch_path(directory, index)
                )
                if batch.size and max(
                    batch.additions.max_vertex(), batch.deletions.max_vertex()
                ) >= num_vertices:
                    report.problems.append(
                        f"batch {index} references vertex out of range"
                    )
                tip = batch.apply(tip, strict=True)
        except Exception as exc:
            report.problems.append(f"replay failed: {exc}")
            return
        if (len(tip) != payload["tip_edge_count"]
                or _edges_checksum(tip) != payload["tip_checksum"]):
            report.problems.append("tip digest mismatch after replay")

    @staticmethod
    def _load_edges(path: Path, key: str) -> EdgeSet:
        with np.load(path) as data:
            return EdgeSet(data[key])

    @staticmethod
    def _load_batch_file(path: Path) -> DeltaBatch:
        with np.load(path) as data:
            return DeltaBatch(
                additions=EdgeSet(data["additions"]),
                deletions=EdgeSet(data["deletions"]),
            )

    @staticmethod
    def _parse_batch_index(name: str) -> Optional[int]:
        stem = name[len("batch_"):-len(".npz")]
        return int(stem) if stem.isdigit() else None

    def recover(self) -> RecoveryReport:
        """Repair this store; see :meth:`recover_store`.

        The instance re-reads the recovered manifest afterwards, so it
        is safe to keep using it.
        """
        report = type(self).recover_store(self.directory)
        self.__init__(self.directory)
        return report

    @classmethod
    def recover_store(cls, directory: Union[str, Path]) -> RecoveryReport:
        """Return a store directory to a consistent, verifiable state.

        Deterministic policy, in order:

        1. delete leftover ``*.tmp`` files from interrupted writes;
        2. if the manifest is corrupt or missing, restore it from
           ``manifest.json.bak`` (failing that, the store is
           unrecoverable and :class:`IntegrityError` is raised);
        3. truncate to the longest prefix of referenced batches whose
           files exist, pass their checksums and replay cleanly;
        4. resolve a torn append: consecutive orphan batch files after
           the good prefix are *rolled forward* (committed) if they are
           intact and apply strictly to the tip, otherwise *rolled
           back* (deleted); remaining stray batch files are deleted;
        5. rewrite a clean v2 manifest (and backup) reflecting exactly
           the surviving files, with freshly computed checksums and tip
           digest.

        Afterwards ``verify()`` is clean.  Reads bypass the
        fault-injection hooks, mirroring :meth:`verify_store`.
        Raises :class:`IntegrityError` when the base snapshot or both
        manifest copies are damaged — those have no redundancy to
        recover from.
        """
        directory = Path(directory)
        report = RecoveryReport(directory=str(directory))
        actions = report.actions
        for path in sorted(directory.glob("*.tmp")):
            path.unlink()
            actions.append(f"removed leftover temporary file {path.name}")
        payload = cls._recover_manifest(directory, actions)
        num_batches = int(payload["num_batches"])
        checksums = payload["checksums"]

        base_path = directory / "base.npz"
        if not base_path.is_file():
            raise IntegrityError(f"{directory}: base.npz is missing")
        base_data = base_path.read_bytes()
        if _sha256(base_data) != checksums.get("base.npz"):
            raise IntegrityError(
                f"{directory}: base.npz is corrupt and has no redundancy"
            )
        try:
            with np.load(io.BytesIO(base_data)) as data:
                tip = EdgeSet(data["codes"])
        except Exception as exc:
            raise IntegrityError(
                f"{directory}: base.npz is unreadable ({exc})"
            ) from exc
        new_checksums = {"base.npz": _sha256(base_data)}

        # Longest verifiable prefix of the batches the manifest references.
        good = 0
        for index in range(num_batches):
            name = cls._batch_name(index)
            path = directory / name
            if not path.is_file():
                break
            data = path.read_bytes()
            if checksums.get(name) not in (None, _sha256(data)):
                break
            try:
                with np.load(io.BytesIO(data)) as npz:
                    batch = DeltaBatch(
                        additions=EdgeSet(npz["additions"]),
                        deletions=EdgeSet(npz["deletions"]),
                    )
                tip = batch.apply(tip, strict=False)
            # An unreadable batch ends the verifiable prefix; the
            # truncation is recorded as a recovery action just below.
            except Exception:
                break
            new_checksums[name] = _sha256(data)
            good = index + 1
        if good < num_batches:
            actions.append(
                f"truncated to {good} of {num_batches} batches "
                f"(unverifiable suffix)"
            )
            for index in range(good, num_batches):
                path = cls._batch_path(directory, index)
                if path.is_file():
                    path.unlink()
                    actions.append(f"removed unverifiable {path.name}")

        # Torn append: roll consecutive intact orphans forward.
        index = good
        while True:
            path = cls._batch_path(directory, index)
            if not path.is_file():
                break
            data = path.read_bytes()
            try:
                with np.load(io.BytesIO(data)) as npz:
                    batch = DeltaBatch(
                        additions=EdgeSet(npz["additions"]),
                        deletions=EdgeSet(npz["deletions"]),
                    )
                if batch.size and max(
                    batch.additions.max_vertex(), batch.deletions.max_vertex()
                ) >= int(payload["num_vertices"]):
                    raise SnapshotError("vertex out of range")
                tip = batch.apply(tip, strict=True)
            except Exception:
                path.unlink()
                actions.append(f"rolled back torn append ({path.name})")
                break
            new_checksums[cls._batch_name(index)] = _sha256(data)
            actions.append(f"completed torn append ({path.name})")
            index += 1
        final_batches = max(good, index)
        for path in sorted(directory.glob("batch_*.npz")):
            batch_index = cls._parse_batch_index(path.name)
            if batch_index is None or batch_index >= final_batches:
                path.unlink()
                actions.append(f"removed stray batch file {path.name}")

        final_payload = cls._payload(
            name=payload["name"],
            num_vertices=int(payload["num_vertices"]),
            num_batches=final_batches,
            checksums=new_checksums,
            tip=tip,
        )
        current = None
        if (directory / _MANIFEST).is_file():
            try:
                current = _parse_manifest(
                    (directory / _MANIFEST).read_bytes(), str(directory)
                )
            except ReproError:
                current = None
        bak_ok = False
        if (directory / _MANIFEST_BAK).is_file():
            try:
                _parse_manifest(
                    (directory / _MANIFEST_BAK).read_bytes(), str(directory)
                )
                bak_ok = True
            except ReproError:
                bak_ok = False
        if actions or current != final_payload or not bak_ok:
            data = _manifest_bytes(final_payload)
            _write_file(directory / _MANIFEST, data)
            _write_file(directory / _MANIFEST_BAK, data)
            if current != final_payload:
                actions.append("rewrote manifest (v2)")
        report.num_batches = final_batches
        return report

    @classmethod
    def _recover_manifest(cls, directory: Path, actions: List[str]) -> dict:
        """The manifest payload to recover from, restoring the backup if
        the live copy is damaged."""
        manifest_path = directory / _MANIFEST
        if manifest_path.is_file():
            try:
                return _parse_manifest(manifest_path.read_bytes(),
                                       str(directory))
            except ReproError:
                pass
        bak_path = directory / _MANIFEST_BAK
        if bak_path.is_file():
            try:
                payload = _parse_manifest(bak_path.read_bytes(),
                                          f"{directory} (backup)")
            except ReproError:
                payload = None
            if payload is not None:
                actions.append("restored manifest from manifest.json.bak")
                return payload
        raise IntegrityError(
            f"{directory}: manifest unrecoverable (no valid backup)"
        )

    def __repr__(self) -> str:
        return (
            f"SnapshotStore({str(self.directory)!r}, name={self.name!r}, "
            f"snapshots={self.num_snapshots})"
        )
