"""Subprocess end-to-end drills for the sweep daemon.

These run ``repro serve`` as a real child process and exercise the
acceptance criteria the in-process tests cannot: a ``kill -9`` of the
whole daemon mid-sweep (journal recovery, exactly-once accounting via
the fault trace) and a ``SIGTERM`` graceful drain.  The CI
``sweep-service`` job runs this module on every push.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient

SPECS_A = [
    "gshare:index=8,hist=6",
    "bimode:dir=6,hist=6,choice=6",
    "bimodal:index=6",
]
SPECS_B = [
    "gshare:index=8,hist=6",        # overlaps A
    "bimode:dir=6,hist=6,choice=6",  # overlaps A
    "gshare:index=9,hist=5",
]
BENCHES = ["xlisp", "compress", "go"]
LENGTH = 40_000

SRC = str(Path(__file__).resolve().parent.parent / "src")


def daemon_env(cache, **extra):
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        REPRO_CACHE_DIR=str(cache),
        REPRO_JOBS="2",
        REPRO_HEALTH_JSON="1",
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_TRACE", None)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def start_daemon(sock, env, log_path):
    """Start a daemon leading its own process group, which its pool
    workers inherit (see :func:`kill_group`)."""
    log = open(log_path, "w")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock)],
        env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
    )


def kill_group(proc):
    """SIGKILL the daemon's whole process group.

    Pool workers outlive a SIGKILLed daemon; killing only the daemon
    would leave them idle after the test.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the daemon and every worker already exited
    proc.wait(timeout=30)


def wait_up(client, proc, log_path, timeout=60):
    deadline = time.monotonic() + timeout
    while True:
        if proc.poll() is not None:
            pytest.fail(f"daemon died on startup:\n{Path(log_path).read_text()}")
        try:
            client.ping()
            return
        except OSError:
            if time.monotonic() > deadline:
                pytest.fail(f"daemon never came up:\n{Path(log_path).read_text()}")
            time.sleep(0.05)


def union_cells():
    cells = set()
    for spec in SPECS_A + SPECS_B:
        for bench in BENCHES:
            cells.add((f"{bench}-n{LENGTH}-s0", spec))
    return cells


def recovered_cells(cache, union):
    """Cells of the job union already present in cache or journals."""
    have = set()
    results_dir = Path(cache) / "results"
    if results_dir.is_dir():
        for table in results_dir.glob("*.json"):
            try:
                data = json.loads(table.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            for spec in data:
                have.add((table.stem, spec))
    journal_dir = Path(cache) / "service" / "journal"
    if journal_dir.is_dir():
        for journal in journal_dir.glob("*.jsonl"):
            for line in journal.read_text().splitlines():
                try:
                    row = json.loads(line)
                    have.add((row["tkey"], row["spec"]))
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
    return have & union


def trace_snapshot(trace_root):
    root = Path(trace_root)
    if not root.is_dir():
        return {}
    return {p.name: len(p.read_text().splitlines()) for p in root.glob("*.log")}


def evaluated_cells_since(trace_root, snapshot):
    total = 0
    root = Path(trace_root)
    if not root.is_dir():
        return 0
    for path in sorted(root.glob("*.log")):
        lines = path.read_text().splitlines()
        for line in lines[snapshot.get(path.name, 0):]:
            fields = line.split()
            if fields and fields[0] == "evaluate":
                for field in fields[1:]:
                    if field.startswith("cells="):
                        total += int(field[len("cells="):])
    return total


def serial_reference(root, monkeypatch):
    """Ground truth from the one-shot path, against a fresh trace store."""
    from repro.sim.runner import evaluate_matrix
    from repro.traces.store import TraceStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(Path(root) / "refcache"))
    store = TraceStore(Path(root) / "refcache" / "traces")
    traces = {b: store.materialize(b, LENGTH, 0) for b in BENCHES}
    return evaluate_matrix(sorted(set(SPECS_A + SPECS_B)), traces, jobs=1)


class TestKillNineDrill:
    def test_kill9_mid_sweep_recovers_bit_identically(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        trace_root = tmp_path / "ftrace"
        sock = tmp_path / "s.sock"
        benches = [{"name": b, "length": LENGTH} for b in BENCHES]
        alice = ServiceClient(str(sock), client_id="alice")
        bob = ServiceClient(str(sock), client_id="bob")

        # Daemon 1: sleepy workers guarantee the kill lands mid-sweep.
        env1 = daemon_env(
            cache,
            REPRO_FAULTS="worker:sleep:seconds=0.25",
            REPRO_FAULT_TRACE=trace_root,
        )
        daemon1 = start_daemon(sock, env1, tmp_path / "daemon1.log")
        try:
            wait_up(alice, daemon1, tmp_path / "daemon1.log")
            job_a = alice.submit(SPECS_A, benches, priority=1)
            job_b = bob.submit(SPECS_B, benches)

            deadline = time.monotonic() + 120
            while True:
                jobs = {j["job_id"]: j for j in alice.status()}
                done = (jobs[job_a]["completed_cells"]
                        + jobs[job_b]["completed_cells"])
                total = jobs[job_a]["total_cells"] + jobs[job_b]["total_cells"]
                if jobs[job_a]["state"] == "done" and jobs[job_b]["state"] == "done":
                    pytest.fail("sweep finished before the kill: workload too fast")
                if 0 < done <= total // 2:
                    break
                assert time.monotonic() < deadline, "no progress before kill window"
                time.sleep(0.02)

            os.kill(daemon1.pid, signal.SIGKILL)
            daemon1.wait(timeout=30)
        finally:
            kill_group(daemon1)
        time.sleep(1.5)  # let the killed pool workers exit

        union = union_cells()
        recovered = recovered_cells(cache, union)
        assert recovered, "nothing journalled before the kill"
        assert recovered != union, "kill landed after the sweep finished"
        snapshot = trace_snapshot(trace_root)

        # Daemon 2: no sleep fault; must resume and finish both jobs.
        env2 = daemon_env(cache, REPRO_FAULT_TRACE=trace_root)
        daemon2 = start_daemon(sock, env2, tmp_path / "daemon2.log")
        try:
            final_a = alice.wait(job_a, timeout=300)
            final_b = bob.wait(job_b, timeout=300)
            assert final_a["state"] == "done", final_a.get("error")
            assert final_b["state"] == "done", final_b.get("error")

            # Exactly-once: the restarted daemon simulated precisely the
            # cells missing from the journals/cache, nothing twice.
            resimulated = evaluated_cells_since(trace_root, snapshot)
            assert resimulated == len(union) - len(recovered)

            ref = serial_reference(tmp_path, monkeypatch)
            for final, specs in ((final_a, SPECS_A), (final_b, SPECS_B)):
                for spec in specs:
                    for bench in BENCHES:
                        assert final["results"][spec][bench] == ref[spec][bench]

            alice.drain()
            daemon2.wait(timeout=60)
            assert daemon2.returncode == 0
        finally:
            kill_group(daemon2)


class TestSigtermDrain:
    def test_sigterm_persists_queued_and_restart_completes(self, tmp_path):
        cache = tmp_path / "cache"
        sock = tmp_path / "s.sock"
        benches = [{"name": b, "length": LENGTH} for b in BENCHES]
        client = ServiceClient(str(sock), client_id="drainer")

        env1 = daemon_env(cache, REPRO_FAULTS="worker:sleep:seconds=0.3")
        daemon1 = start_daemon(sock, env1, tmp_path / "daemon1.log")
        try:
            wait_up(client, daemon1, tmp_path / "daemon1.log")
            job_id = client.submit(SPECS_A, benches)
            deadline = time.monotonic() + 120
            while True:
                (row,) = client.status(job_id)
                if 0 < row["completed_cells"] < row["total_cells"]:
                    break
                assert row["state"] != "done", "finished before SIGTERM"
                assert time.monotonic() < deadline
                time.sleep(0.02)

            daemon1.send_signal(signal.SIGTERM)
            daemon1.wait(timeout=120)
            assert daemon1.returncode == 0
        finally:
            kill_group(daemon1)
        assert not sock.exists()  # graceful exit removed the socket

        manifest = json.loads(
            (cache / "service" / "jobs" / f"{job_id}.json").read_text()
        )
        assert manifest["state"] == "queued"  # persisted for the next daemon
        assert 0 < manifest["completed_cells"] < manifest["total_cells"]

        daemon2 = start_daemon(sock, daemon_env(cache), tmp_path / "daemon2.log")
        try:
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            assert final["completed_cells"] == final["total_cells"]
            client.drain()
            daemon2.wait(timeout=60)
        finally:
            kill_group(daemon2)
