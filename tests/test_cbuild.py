"""The C build helper: publishing, loading and failure reporting.

Both compiled drivers (:mod:`repro.sim._cstep` and
:mod:`repro.workloads._cgen`) build through :mod:`repro._cbuild`; a
cached object that lacks a bound symbol must be reported, not raised,
and concurrent cold processes must all load a complete object.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _cbuild
from repro.sim import _cstep
from repro.workloads import _cgen

COMPILER = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
needs_cc = pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Loads both drivers in a fresh process and prints their reasons.
PROBE = (
    "from repro.sim import _cstep\n"
    "from repro.workloads import _cgen\n"
    "print(_cstep.unavailable_reason(), _cgen.unavailable_reason(), sep='|')\n"
)


def _fresh(lib: _cbuild.CLibrary) -> _cbuild.CLibrary:
    """A not-yet-loaded twin of one of the drivers' libraries."""
    return _cbuild.CLibrary(lib.name, lib.source, lib.bind, lib.flags)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(_cbuild.NO_CC_ENV, raising=False)
    return tmp_path


@needs_cc
def test_cached_object_without_a_symbol_is_reported(cold_cache, tmp_path):
    lib = _fresh(_cstep._LIB)
    lib.path.parent.mkdir(parents=True)
    src = tmp_path / "empty.c"
    src.write_text("int unrelated_symbol = 1;\n")
    subprocess.run(
        [COMPILER, "-shared", "-fPIC", "-o", str(lib.path), str(src)], check=True
    )
    assert lib.available() is False
    reason = lib.unavailable_reason()
    assert str(lib.path) in reason and "lacks a bound symbol" in reason


def test_unloadable_object_is_reported(cold_cache):
    lib = _fresh(_cgen._LIB)
    lib.path.parent.mkdir(parents=True)
    lib.path.write_bytes(b"not an ELF object")
    assert lib.available() is False
    assert "failed to load" in lib.unavailable_reason()


def test_missing_compiler_is_reported(cold_cache, monkeypatch):
    monkeypatch.setenv("PATH", str(cold_cache / "empty-bin"))
    lib = _fresh(_cstep._LIB)
    assert lib.available() is False
    assert lib.unavailable_reason() == "no C compiler on PATH"
    assert not lib.path.exists()


@needs_cc
def test_concurrent_cold_processes_all_load(cold_cache):
    """Four processes build both drivers into one empty cache at once:
    every one of them loads, and only complete objects are published."""
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    results = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert out.strip() == "None|None", (out, err)
    published = sorted(p.name for p in (cold_cache / "ckernel").iterdir())
    assert published == sorted([_cstep._LIB.path.name, _cgen._LIB.path.name])
    for lib in (_fresh(_cstep._LIB), _fresh(_cgen._LIB)):
        assert lib.available(), lib.unavailable_reason()
