"""Content-addressed, memory-mapped trace store.

Generated traces used to persist as compressed ``.npz``: every reader
paid a full decompress-and-copy, and every pool worker held its own
private copy of the arrays.  The store keeps each trace as a directory
of two *uncompressed* ``.npy`` files plus a small ``meta.json``::

    <root>/<name>-n<length>-s<seed>-g<version>/
        pcs.npy        int64[length]
        outcomes.npy   bool[length]
        meta.json      {"name", "length", "seed", "generator", "metadata"}

and opens them with ``np.load(mmap_mode="r")``, so every reader — and
every worker process on the same host, through the OS page cache — maps
the same physical bytes.  Loading a warm trace costs two ``open(2)``
calls and a header parse, regardless of length; nothing is decompressed
and nothing is copied.

Keys are content addresses: workload generation is deterministic in
``(profile name, length, seed)`` and the generator version is part of
the key, so a key can never silently alias two different byte
sequences.  Bump :data:`GENERATOR_VERSION` whenever trace-generation
*semantics* change (the fast path in :mod:`repro.workloads.fastgen` is
bit-identical to ``Program.run``, so engine choice does not affect the
key).

Concurrency follows the repo's cache discipline:

* **atomic publish** — arrays are written to a sibling temp directory
  and moved into place with ``os.replace``; readers can never observe a
  half-written trace;
* **single-flight** — a pid-stamped lock file makes concurrent cold
  opens generate exactly once: one process wins the lock and
  materializes, the rest wait for the publish (a lock whose owner died
  is stolen, so a worker killed mid-generation never wedges the store);
* **quarantine** — a directory that fails validation is renamed to
  ``<key>.corrupt-<pid>`` (preserved for inspection, out of the way)
  and the trace is regenerated, mirroring ``ResultCache``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.faults import fault_point
from repro.traces.record import BranchTrace

__all__ = ["GENERATOR_VERSION", "TraceStore", "default_store"]

#: Version of the trace-generation semantics baked into store keys.
GENERATOR_VERSION = 1

#: Seconds between lock polls while waiting on another materializer.
_POLL_S = 0.05

#: Give up waiting on a lock after this long and raise — a generation
#: that takes 10 minutes is a hang, not a workload.
_LOCK_TIMEOUT_S = 600.0


class TraceStoreTimeout(RuntimeError):
    """Waited too long for another process to materialize a trace."""


class TraceStore:
    """Memory-mapped, single-flight trace store rooted at a directory."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            from repro.workloads.suite import default_cache_dir

            root = default_cache_dir() / "store"
        self.root = Path(root)

    # -- keys and paths --------------------------------------------------------

    @staticmethod
    def key(name: str, length: int, seed: int) -> str:
        """The content-address of one generated trace."""
        return f"{name}-n{length}-s{seed}-g{GENERATOR_VERSION}"

    def path(self, name: str, length: int, seed: int) -> Path:
        return self.root / self.key(name, length, seed)

    def has(self, name: str, length: int, seed: int) -> bool:
        """Whether the trace is published (cheap, no validation)."""
        return (self.path(name, length, seed) / "meta.json").exists()

    # -- reading ---------------------------------------------------------------

    def open(self, name: str, length: int, seed: int) -> Optional[BranchTrace]:
        """Map a published trace, or ``None`` if absent (or quarantined).

        The returned arrays are read-only memory maps; writes to them
        raise rather than corrupting the store.
        """
        path = self.path(name, length, seed)
        if not path.is_dir():
            return None
        try:
            meta = json.loads((path / "meta.json").read_text())
            if not isinstance(meta, dict):
                raise ValueError("meta.json is not an object")
            if int(meta["length"]) != length or meta["name"] != name:
                raise ValueError("meta.json does not match its key")
            pcs = np.load(path / "pcs.npy", mmap_mode="r", allow_pickle=False)
            outcomes = np.load(
                path / "outcomes.npy", mmap_mode="r", allow_pickle=False
            )
            if pcs.dtype != np.int64 or outcomes.dtype != bool:
                raise ValueError(
                    f"unexpected dtypes {pcs.dtype}/{outcomes.dtype}"
                )
            if pcs.ndim != 1 or pcs.shape != outcomes.shape or len(pcs) != length:
                raise ValueError(
                    f"unexpected shapes {pcs.shape}/{outcomes.shape}"
                )
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            self._quarantine(path, exc)
            return None
        return BranchTrace.trusted(
            pcs=pcs,
            outcomes=outcomes,
            name=str(meta.get("name", name)),
            metadata=dict(meta.get("metadata", {})),
        )

    def _quarantine(self, path: Path, exc: Exception) -> None:
        from repro import health

        target = path.with_name(f"{path.name}.corrupt-{os.getpid()}")
        try:
            os.replace(path, target)
            where = target.name
        except OSError:
            where = "<unmovable>"
        health.emit(
            "trace-store",
            "open",
            "quarantined",
            reason=f"{path.name}: {type(exc).__name__}: {exc}",
            severity="degraded",
            moved_to=where,
        )

    # -- writing ---------------------------------------------------------------

    def put(self, trace: BranchTrace, seed: int) -> BranchTrace:
        """Publish a trace atomically; returns the mapped copy.

        Publishing is last-writer-loses: if the key is already
        published (a concurrent materializer won), the existing bytes
        are kept — keys are content addresses, so both writers hold
        identical data.
        """
        if not trace.name:
            raise ValueError("only named traces can be stored")
        length = len(trace)
        final = self.path(trace.name, length, seed)
        tmp = final.with_name(f".tmp-{final.name}-{os.getpid()}")
        self.root.mkdir(parents=True, exist_ok=True)
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            np.save(tmp / "pcs.npy", np.ascontiguousarray(trace.pcs, dtype=np.int64))
            np.save(
                tmp / "outcomes.npy",
                np.ascontiguousarray(trace.outcomes, dtype=bool),
            )
            meta = {
                "name": trace.name,
                "length": length,
                "seed": seed,
                "generator": GENERATOR_VERSION,
                "metadata": trace.metadata,
            }
            (tmp / "meta.json").write_text(json.dumps(meta))
            try:
                os.replace(tmp, final)
            except OSError:
                if not (final / "meta.json").exists():
                    raise
                # lost the publish race; identical bytes already live there
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        opened = self.open(trace.name, length, seed)
        if opened is None:  # pragma: no cover - disk failure between write+read
            raise OSError(f"trace {final.name} unreadable immediately after publish")
        return opened

    # -- single-flight materialization ----------------------------------------

    def materialize(
        self,
        name: str,
        length: int,
        seed: int,
        generate=None,
    ) -> BranchTrace:
        """Open the trace, generating and publishing it first if cold.

        ``generate`` defaults to the profile generator
        (:func:`repro.workloads.generator.generate_trace`); tests may
        substitute their own ``() -> BranchTrace``.

        Exactly one process generates a cold trace: concurrent callers
        block on the single-flight lock and map the published bytes.
        """
        trace = self.open(name, length, seed)
        if trace is not None:
            return trace
        deadline = time.monotonic() + _LOCK_TIMEOUT_S
        lock = self.root / f"{self.key(name, length, seed)}.lock"
        while True:
            if self._acquire(lock):
                try:
                    # Re-check under the lock: the previous holder may
                    # have published while we were acquiring.
                    trace = self.open(name, length, seed)
                    if trace is not None:
                        return trace
                    return self.put(self._generate(name, length, seed, generate), seed)
                finally:
                    lock.unlink(missing_ok=True)
            # Another process holds the lock; wait for its publish.
            time.sleep(_POLL_S)
            trace = self.open(name, length, seed)
            if trace is not None:
                return trace
            if time.monotonic() > deadline:
                raise TraceStoreTimeout(
                    f"gave up waiting for {lock.name} after {_LOCK_TIMEOUT_S:g}s"
                )

    def _acquire(self, lock: Path) -> bool:
        """Try to take the single-flight lock; steal it if its owner died."""
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lock, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            dead_pid = self._dead_holder(lock)
            if dead_pid is not None:
                # Unlink-then-retry keeps the steal race-safe: of any
                # number of stealers, exactly one wins the next O_EXCL.
                # The steal is loud — a dead materializer means a trace
                # generation was lost and is being redone, which sweeps
                # should be able to account for after the fact.
                from repro import health

                health.emit(
                    "trace-store",
                    "lock-held",
                    "lock-stolen",
                    reason=f"{lock.name}: holder pid {dead_pid} is dead",
                    severity="degraded",
                    pid=dead_pid,
                    key=lock.name[: -len(".lock")],
                )
                lock.unlink(missing_ok=True)
            return False
        try:
            os.write(fd, str(os.getpid()).encode())
        finally:
            os.close(fd)
        return True

    @staticmethod
    def _dead_holder(lock: Path) -> Optional[int]:
        """The lock holder's pid if that process is dead, else ``None``."""
        try:
            pid = int(lock.read_text().strip() or "0")
        except (OSError, ValueError):
            return None  # mid-write or already gone; let the poll retry
        if pid <= 0:
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except PermissionError:  # pragma: no cover - alive, other user
            return None
        except OSError:  # pragma: no cover - conservative on odd errnos
            return None
        return None

    def _generate(self, name: str, length: int, seed: int, generate) -> BranchTrace:
        # The fault point sits in the lock-winner's generation path
        # only, so cross-process trace counts measure how many times a
        # trace was *actually* generated — waiters never hit it.
        fault_point("materialize", bench=name)
        if generate is not None:
            return generate()
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import get_profile

        return generate_trace(get_profile(name), length=length, seed=seed)

    # -- npz interchange -------------------------------------------------------

    def import_npz(self, path: os.PathLike, seed: int) -> BranchTrace:
        """Publish an external ``.npz`` trace under its content key."""
        from repro.traces.io import load_npz

        return self.put(load_npz(path), seed)

    def export_npz(self, name: str, length: int, seed: int, path: os.PathLike) -> Path:
        """Write a stored trace back out as portable compressed ``.npz``."""
        from repro.traces.io import save_npz

        trace = self.open(name, length, seed)
        if trace is None:
            raise FileNotFoundError(
                f"trace {self.key(name, length, seed)} is not in the store"
            )
        return save_npz(trace, path)


def default_store() -> TraceStore:
    """The store under the shared cache root (``$REPRO_CACHE_DIR``)."""
    return TraceStore()
