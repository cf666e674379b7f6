"""Build and load the optional compiled C drivers.

:mod:`repro.sim._cstep` (the predictor loops) and
:mod:`repro.workloads._cgen` (the trace-generation event and assembly
passes) each hand their C source and ctypes binding to one
:class:`CLibrary`, which compiles it with the *system* C compiler on
first use — no build system, no installed extension, no new
dependency — and loads it through :mod:`ctypes`:

* the shared object lives under ``<cache dir>/ckernel``, named by a
  digest of its source, so an edit rebuilds automatically;
* each process compiles a private copy of the source into a private
  object, binds every symbol there, and only then publishes it with
  one atomic ``os.replace``, so concurrent cold processes never load a
  torn build and never publish one;
* any failure — no compiler on PATH, a failed compile, an object that
  does not load or lacks a symbol, a failed self-test — is remembered
  and reported by :meth:`CLibrary.unavailable_reason`, and the callers
  fall back to their numpy / pure-Python paths with bit-identical
  results;
* ``REPRO_NO_CC=1`` vetoes every compiled driver (tests pin the
  no-compiler paths with it, and it is the escape hatch on platforms
  where invoking the compiler is unwanted); a vetoed process starts no
  compiler and no thread.

Overlapping builds.  Each driver declares its *siblings*, the modules
of the other compiled drivers (``_cgen`` names ``repro.sim._cstep`` and
``_cstep`` names ``repro.workloads._cgen``).  When a library's first
load finds its object unpublished, it starts every sibling whose
object is unpublished too on a background thread, then builds its own.
A cold run therefore compiles the predictor loops alongside the
trace-generation passes, and then alongside trace materialization: the
first use of the predictor loops waits on that library's lock only for
the compile time that is left.  A background build runs the one build
path above unchanged, and its result (or failure) is reported at use,
by the thread that first loads the library, never raised on the
background thread.  Two rules keep the threads safe:

* *exit* — build threads are not daemons, so the interpreter waits for
  them at exit and no compiler outlives the process that started it;
* *fork* — ``os.register_at_fork`` joins every pending build before a
  fork (the fork-start worker pool of :mod:`repro.sim.parallel`), so no
  child inherits a lock that a build thread holds.

Every cold build is timed; the thread that first uses the library
records it as one ``info`` event under the ``c-build`` component of
:mod:`repro.health` (``REPRO_HEALTH_JSON=1`` streams it).
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = ["NO_CC_ENV", "vetoed", "ptr", "CLibrary"]

#: The environment variable that vetoes every compiled driver.
NO_CC_ENV = "REPRO_NO_CC"

_COMPILERS = ("cc", "gcc", "clang")

#: Background builds started in this process and not yet joined.
_builds: List[threading.Thread] = []


def _join_builds() -> None:
    """Wait for every background build (run before each fork)."""
    while _builds:
        thread = _builds.pop()
        if thread is not threading.current_thread():
            thread.join()


os.register_at_fork(before=_join_builds)


def vetoed() -> bool:
    """Whether ``REPRO_NO_CC`` forbids the compiled drivers."""
    return os.environ.get(NO_CC_ENV, "").strip() not in ("", "0")


def ptr(array: np.ndarray) -> ctypes.c_void_p:
    """An array's data pointer, as the C loops take it."""
    return ctypes.c_void_p(array.ctypes.data)


class _Unavailable(Exception):
    """Why a library cannot be used; remembered as its failure."""


class CLibrary:
    """One C source, compiled once per source digest and loaded once
    per process.

    ``bind`` declares the entry points' ctypes types on every load (a
    missing symbol refuses the object) and may return a reason to
    refuse it anyway, such as a failed self-test; ``flags`` follow the
    source on the compiler command line.  ``siblings`` name the modules
    whose ``_LIB`` builds alongside this one on a cold cache.
    """

    def __init__(
        self,
        name: str,
        source: str,
        bind: Callable[[ctypes.CDLL], Optional[str]],
        flags: Sequence[str] = (),
        siblings: Sequence[str] = (),
    ):
        self.name = name
        self.source = source
        self.bind = bind
        self.flags = tuple(flags)
        self.siblings = tuple(siblings)
        self._lib: Optional[ctypes.CDLL] = None
        self._attempted = False
        self._failure: Optional[str] = None
        #: Held while the library is being opened, on whichever thread.
        self._lock = threading.Lock()
        #: Seconds of a cold build not yet reported to repro.health.
        self._build_s: Optional[float] = None

    @property
    def path(self) -> Path:
        """Where the shared object of this source is published."""
        from repro.workloads.suite import default_cache_dir

        digest = hashlib.sha1(self.source.encode()).hexdigest()[:16]
        return default_cache_dir() / "ckernel" / f"{self.name}-{digest}.so"

    def load(self) -> Optional[ctypes.CDLL]:
        """The bound library, or ``None`` when it cannot be used."""
        if vetoed():
            return None
        if not self._attempted:
            with self._lock:  # waits out a background build
                if not self._attempted:
                    path = self.path
                    if not path.exists():
                        for module in self.siblings:
                            importlib.import_module(module)._LIB._build_in_background()
                    self._attempt(path)
        if self._build_s is not None:
            self._report_build()
        return self._lib

    def require(self) -> ctypes.CDLL:
        """The bound library; callers gate on :meth:`available` first."""
        lib = self.load()
        if lib is None:  # pragma: no cover - callers gate on available()
            raise RuntimeError(f"compiled {self.name} driver is not available")
        return lib

    def available(self) -> bool:
        """Whether the compiled driver can be used in this environment."""
        return self.load() is not None

    def unavailable_reason(self) -> Optional[str]:
        """Why the compiled driver cannot run, or ``None`` if it can.

        Feeds the degradation events of the dispatch chains
        (:mod:`repro.health`): a report can then state *why* work fell
        back from a compiled loop.
        """
        if vetoed():
            return f"{NO_CC_ENV} is set"
        if self.load() is not None:
            return None
        return self._failure or "compiled driver unavailable"

    def _attempt(self, path: Path) -> None:
        """Open ``path`` once, remembering the library or the failure
        and, when it had to be built, the build's wall seconds."""
        cold = not path.exists()
        start = time.perf_counter()
        try:
            self._lib = self._open(path)
        except _Unavailable as exc:
            self._failure = str(exc)
        if cold:
            self._build_s = time.perf_counter() - start
        self._attempted = True

    def _build_in_background(self) -> None:
        """Start this library's cold build on a thread, unless it is
        published, opened or being opened already."""
        if not self._lock.acquire(blocking=False):
            return
        path = self.path
        if not self._attempted and not path.exists():
            thread = threading.Thread(
                target=self._build_and_release, args=(path,), name=f"cbuild-{self.name}"
            )
            try:
                thread.start()
                _builds.append(thread)
                return
            except RuntimeError:  # no thread to spare: the first use builds it
                pass
        self._lock.release()

    def _build_and_release(self, path: Path) -> None:
        try:
            self._attempt(path)
        finally:
            self._lock.release()

    def _report_build(self) -> None:
        """Record the cold build as one ``c-build`` health event."""
        from repro import health

        with self._lock:  # one event, however many threads use it first
            seconds, self._build_s = self._build_s, None
        if seconds is None:
            return
        outcome = "built" if self._lib is not None else f"failed ({self._failure})"
        health.emit(
            "c-build",
            "c",
            "c" if self._lib is not None else "unavailable",
            reason=f"{self.name} {outcome} in {seconds:.2f} s",
            severity="info",
            library=self.name,
            seconds=round(seconds, 3),
        )

    def _load_bound(self, path: Path) -> ctypes.CDLL:
        """Load ``path`` and bind it, or say why it cannot be used."""
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise _Unavailable(f"shared object failed to load: {exc}") from None
        try:
            refusal = self.bind(lib)
        except AttributeError as exc:  # ctypes names the object and symbol
            raise _Unavailable(f"shared object lacks a bound symbol: {exc}") from None
        if refusal:
            raise _Unavailable(refusal)
        return lib

    def _open(self, path: Path) -> ctypes.CDLL:
        """Load the published object, building and publishing it first
        when it does not exist yet."""
        if path.exists():
            return self._load_bound(path)
        compiler = next((c for c in _COMPILERS if shutil.which(c)), None)
        if compiler is None:
            raise _Unavailable("no C compiler on PATH")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, src = tempfile.mkstemp(
                dir=path.parent, prefix=f"{path.stem}-", suffix=".c"
            )
        except OSError as exc:
            raise _Unavailable(f"build directory unusable: {exc}") from None
        src_path = Path(src)
        tmp = src_path.with_suffix(".so.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.source)
            proc = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp), src, *self.flags],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise _Unavailable("compiler invocation failed")
            lib = self._load_bound(tmp)
            os.replace(tmp, path)
            return lib
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"compiler invocation failed: {exc}") from None
        finally:
            src_path.unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
