"""The C build helper: publishing, loading and failure reporting.

Both compiled drivers (:mod:`repro.sim._cstep` and
:mod:`repro.workloads._cgen`) build through :mod:`repro._cbuild`; a
cached object that lacks a bound symbol must be reported, not raised,
and concurrent cold processes must all load a complete object.  On a
cold cache the first load of either driver builds the other one on a
background thread: that build must finish before its process exits or
forks, and a failure in it must be reported at use.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import _cbuild, health
from repro.sim import _cstep
from repro.workloads import _cgen

COMPILER = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
needs_cc = pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Generates a trace in a fresh process without the trace store, which
#: loads the trace-generation driver first.
GENERATE = (
    "from repro.workloads import suite\n"
    "suite.load_benchmark('gcc', length=3000, use_cache=False)\n"
)

#: Generates a trace, then loads both drivers and prints their reasons:
#: the predictor loops come from the build the trace generation started.
PROBE = GENERATE + (
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


def _run(code: str, env_extra=None, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, which must exit cleanly with
    no exception on any thread.  On a timeout (a deadlock) its whole
    process group is killed, worker processes included."""
    env = {**os.environ, "PYTHONPATH": SRC, **(env_extra or {})}
    args = [sys.executable, "-c", code]
    with subprocess.Popen(
        args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    assert child.returncode == 0, err
    assert "Exception in thread" not in err, err
    return subprocess.CompletedProcess(args, child.returncode, out, err)


def _cc_shim(bin_dir: Path, body: str) -> Path:
    """A ``cc`` first on a PATH: ``body`` runs, then the real compiler."""
    bin_dir.mkdir()
    shim = bin_dir / "cc"
    shim.write_text(f'#!/bin/sh\n{body}\nexec {shutil.which(COMPILER)} "$@"\n')
    shim.chmod(0o755)
    return bin_dir


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


@needs_cc
def test_process_that_only_generates_a_trace_finishes_the_sibling_build(cold_cache):
    """Trace generation starts the predictor loops' build in the
    background; a process that exits right after still publishes it,
    leaves no compiler running and no private source or object."""
    pids = cold_cache / "cc.pids"
    shim = _cc_shim(cold_cache / "bin", f'echo $$ >> "{pids}"')
    _run(GENERATE, {"PATH": f"{shim}{os.pathsep}{os.environ['PATH']}"})
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2  # both drivers, one compile each
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    published = sorted(p.name for p in (cold_cache / "ckernel").iterdir())
    assert published == sorted([_cstep._LIB.path.name, _cgen._LIB.path.name])


@needs_cc
def test_fork_while_the_sibling_builds(cold_cache):
    """A fork-start worker pool started as soon as a cold trace is
    generated — while the predictor loops may still be compiling — runs
    to completion and matches the in-process sweep."""
    code = GENERATE.replace("suite.load_benchmark", "trace = suite.load_benchmark") + (
        "from repro.sim.runner import evaluate_matrix\n"
        "specs = ['gshare:index=8,hist=8', 'bimode:dir=7,hist=7,choice=7', 'agree:index=7']\n"
        "traces = {'gcc': trace, 'gcc2': trace[:2000]}\n"
        "pooled = evaluate_matrix(specs, traces, jobs=2)\n"
        "print(pooled == evaluate_matrix(specs, traces, jobs=1), not pooled.failures)\n"
    )
    assert _run(code, timeout=240).stdout.split() == ["True", "True"]


@needs_cc
def test_failed_sibling_build_is_reported_at_use(cold_cache):
    """A compiler that fails only on the predictor loops leaves the
    trace-generation driver loaded; the background failure surfaces as
    the predictor loops' reason, not as an exception on the thread."""
    shim = _cc_shim(cold_cache / "bin", 'case "$*" in *"/step-"*) exit 1;; esac')
    out = _run(
        PROBE + "print(_cgen.available())\n",
        {"PATH": f"{shim}{os.pathsep}{os.environ['PATH']}"},
    ).stdout
    assert out.split("\n")[:2] == ["compiler invocation failed|None", "True"]


def test_twin_starts_no_background_build(cold_cache):
    lib = _fresh(_cgen._LIB)
    assert lib.siblings == ()
    started = len(_cbuild._builds)
    lib.load()
    assert len(_cbuild._builds) == started
    assert not _fresh(_cstep._LIB).path.exists()


@needs_cc
def test_threads_racing_a_cold_load_share_one_build(cold_cache):
    """Eight threads load one cold library at once, switching every
    microsecond: all get the same object and the build is reported once."""
    health.clear()
    lib = _fresh(_cstep._LIB)
    got = []
    threads = [threading.Thread(target=lambda: got.append(lib.load())) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 and got[0] is not None and all(loaded is got[0] for loaded in got)
    assert len(health.events(component="c-build")) == 1


def test_veto_starts_no_compiler_and_no_thread(cold_cache, monkeypatch):
    monkeypatch.setenv(_cbuild.NO_CC_ENV, "1")
    started = len(_cbuild._builds)
    assert _cgen._LIB.load() is None and _cstep._LIB.load() is None
    assert len(_cbuild._builds) == started
    assert not (cold_cache / "ckernel").exists()


@needs_cc
def test_cold_builds_are_reported_by_the_using_thread(cold_cache):
    """Each cold build is one ``info`` event under ``c-build``, naming
    its library and seconds, recorded by the thread that first uses the
    library (never by the build thread), and streamed by
    ``REPRO_HEALTH_JSON=1``."""
    code = (
        "import threading\n"
        "from repro import health\n"
        "health.add_listener(lambda e: print(e.component, e.ctx.get('library'),\n"
        "    threading.current_thread() is threading.main_thread()))\n"
        + PROBE
    )
    proc = _run(code, {"REPRO_HEALTH_JSON": "1"})
    builds = [line for line in proc.stdout.splitlines() if line.startswith("c-build")]
    assert builds == ["c-build fastgen True", "c-build step True"]
    streamed = [json.loads(line) for line in proc.stderr.splitlines() if '"c-build"' in line]
    assert [e["context"]["library"] for e in streamed] == ["fastgen", "step"]
    assert all(e["severity"] == "info" and e["context"]["seconds"] > 0 for e in streamed)
