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
  where invoking the compiler is unwanted).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["NO_CC_ENV", "vetoed", "ptr", "CLibrary"]

#: The environment variable that vetoes every compiled driver.
NO_CC_ENV = "REPRO_NO_CC"

_COMPILERS = ("cc", "gcc", "clang")


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
    source on the compiler command line.
    """

    def __init__(
        self,
        name: str,
        source: str,
        bind: Callable[[ctypes.CDLL], Optional[str]],
        flags: Sequence[str] = (),
    ):
        self.name = name
        self.source = source
        self.bind = bind
        self.flags = tuple(flags)
        self._lib: Optional[ctypes.CDLL] = None
        self._attempted = False
        self._failure: Optional[str] = None

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
            self._attempted = True
            try:
                self._lib = self._open(self.path)
            except _Unavailable as exc:
                self._failure = str(exc)
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
