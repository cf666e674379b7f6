"""Tests for the memory-mapped trace store and store-backed sweeps.

Covers the PR-4 acceptance contract: atomic publish, read-only mmap
views, corrupt-directory quarantine mirroring ``ResultCache``, legacy
``.npz`` migration, single-flight cold materialization (exactly once,
verified cross-process via ``$REPRO_FAULT_TRACE`` call counts), and a
worker hard-killed *during* materialization leaving a bit-identical
final sweep table.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import faults, health
from repro.sim.parallel import TaskPolicy, TraceRecipe
from repro.sim.runner import evaluate_matrix
from repro.traces.store import GENERATOR_VERSION, TraceStore
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

NAME, LENGTH, SEED = "compress", 6_000, 2


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared-cache"))
    health.clear()
    yield
    health.clear()


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_profile(NAME), length=LENGTH, seed=SEED)


class TestRoundTrip:
    def test_put_open(self, store, trace):
        mapped = store.put(trace, SEED)
        assert np.array_equal(mapped.pcs, trace.pcs)
        assert np.array_equal(mapped.outcomes, trace.outcomes)
        assert mapped.name == trace.name
        assert mapped.metadata == trace.metadata  # profile_seed survives
        again = store.open(NAME, LENGTH, SEED)
        assert np.array_equal(again.outcomes, trace.outcomes)

    def test_open_absent_returns_none(self, store):
        assert store.open(NAME, LENGTH, SEED) is None
        assert not store.has(NAME, LENGTH, SEED)

    def test_mapped_arrays_are_read_only(self, store, trace):
        mapped = store.put(trace, SEED)
        with pytest.raises(ValueError):
            mapped.outcomes[0] = not mapped.outcomes[0]
        with pytest.raises(ValueError):
            mapped.pcs[0] = 0
        # the store bytes were not corrupted by the attempts
        fresh = store.open(NAME, LENGTH, SEED)
        assert np.array_equal(fresh.pcs, trace.pcs)

    def test_key_carries_generator_version(self, store):
        assert f"-g{GENERATOR_VERSION}" in store.key(NAME, LENGTH, SEED)

    def test_unnamed_trace_rejected(self, store, trace):
        anon = type(trace).trusted(pcs=trace.pcs, outcomes=trace.outcomes)
        with pytest.raises(ValueError):
            store.put(anon, SEED)


class TestAtomicPublish:
    def test_no_temp_dirs_survive(self, store, trace):
        store.put(trace, SEED)
        leftovers = [p for p in store.root.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_lost_race_keeps_existing_bytes(self, store, trace):
        first = store.put(trace, SEED)
        mtime = (store.path(NAME, LENGTH, SEED) / "pcs.npy").stat().st_mtime_ns
        second = store.put(trace, SEED)  # key already published
        assert (store.path(NAME, LENGTH, SEED) / "pcs.npy").stat().st_mtime_ns == mtime
        assert np.array_equal(second.outcomes, first.outcomes)


class TestQuarantine:
    def test_corrupt_arrays_quarantined_and_regenerated(self, store, trace):
        store.put(trace, SEED)
        (store.path(NAME, LENGTH, SEED) / "pcs.npy").write_bytes(b"not numpy")
        assert store.open(NAME, LENGTH, SEED) is None
        quarantined = list(store.root.glob("*.corrupt-*"))
        assert len(quarantined) == 1
        (event,) = health.events(component="trace-store")
        assert event.actual == "quarantined"
        assert event.severity == "degraded"
        # materialize repairs the slot from scratch
        repaired = store.materialize(NAME, LENGTH, SEED)
        assert np.array_equal(repaired.outcomes, trace.outcomes)

    def test_meta_mismatch_quarantined(self, store, trace):
        store.put(trace, SEED)
        meta_path = store.path(NAME, LENGTH, SEED) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["length"] = LENGTH + 1
        meta_path.write_text(json.dumps(meta))
        assert store.open(NAME, LENGTH, SEED) is None
        assert list(store.root.glob("*.corrupt-*"))


class TestMaterialize:
    def test_generates_once_then_opens(self, store, tmp_path):
        with faults.traced(tmp_path / "trace"):
            first = store.materialize(NAME, LENGTH, SEED)
            second = store.materialize(NAME, LENGTH, SEED)
        assert np.array_equal(first.outcomes, second.outcomes)
        counts = faults.trace_counts(tmp_path / "trace", site="materialize")
        assert counts[("materialize", NAME)] == 1

    def test_custom_generate_callback(self, store, trace):
        calls = []

        def gen():
            calls.append(1)
            return trace

        out = store.materialize(NAME, LENGTH, SEED, generate=gen)
        assert calls == [1]
        assert np.array_equal(out.pcs, trace.pcs)


class TestSingleFlightLock:
    def test_stale_lock_of_dead_holder_is_stolen(self, store, trace):
        import multiprocessing

        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()  # a pid guaranteed dead
        store.root.mkdir(parents=True, exist_ok=True)
        lock = store.root / f"{store.key(NAME, LENGTH, SEED)}.lock"
        lock.write_text(str(proc.pid))
        out = store.materialize(NAME, LENGTH, SEED, generate=lambda: trace)
        assert np.array_equal(out.outcomes, trace.outcomes)
        assert not lock.exists()

    def test_stale_lock_steal_emits_health_event(self, store, trace):
        import multiprocessing

        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()  # a pid guaranteed dead
        store.root.mkdir(parents=True, exist_ok=True)
        key = store.key(NAME, LENGTH, SEED)
        lock = store.root / f"{key}.lock"
        lock.write_text(str(proc.pid))
        health.clear()
        store.materialize(NAME, LENGTH, SEED, generate=lambda: trace)
        steals = [
            e for e in health.events(component="trace-store") if e.actual == "lock-stolen"
        ]
        assert len(steals) == 1
        (event,) = steals
        # The steal must be loud and attributable: name the dead holder
        # and the trace key whose generation is being redone.
        assert event.severity == "degraded"
        assert event.ctx["pid"] == proc.pid
        assert event.ctx["key"] == key
        assert str(proc.pid) in event.reason

    def test_live_holder_lock_is_not_stolen_no_event(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        lock = store.root / "probe.lock"
        lock.write_text(str(os.getpid()))  # we are alive
        health.clear()
        assert not store._acquire(lock)
        assert lock.exists()
        assert [e for e in health.events(component="trace-store") if e.actual == "lock-stolen"] == []

    def test_holder_liveness_probe(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        lock = store.root / "probe.lock"
        lock.write_text(str(os.getpid()))
        assert TraceStore._dead_holder(lock) is None  # we are alive
        lock.write_text("not-a-pid")
        assert TraceStore._dead_holder(lock) is None  # conservative on garbage


def _pool_materialize(root, name, length, seed):
    """Top-level so ProcessPoolExecutor can pickle it."""
    mapped = TraceStore(root).materialize(name, length, seed)
    return int(mapped.outcomes.sum())


class TestCrossProcessSingleFlight:
    def test_concurrent_cold_opens_generate_exactly_once(self, store, tmp_path):
        with faults.traced(tmp_path / "trace"):
            with ProcessPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(_pool_materialize, str(store.root), NAME, LENGTH, SEED)
                    for _ in range(2)
                ]
                results = [f.result(timeout=120) for f in futures]
        assert results[0] == results[1]
        counts = faults.trace_counts(tmp_path / "trace", site="materialize")
        assert counts[("materialize", NAME)] == 1


SPECS = ["gshare:index=8,hist=8", "bimode:dir=6,hist=6,choice=6"]
RECIPE_BENCHES = ("gcc", "xlisp")


class TestStoreBackedSweeps:
    """Recipe-valued sweeps: workers mmap the store instead of
    regenerating, cold traces fan out as supervised materialize tasks."""

    def _recipes(self, store):
        return {
            name: TraceRecipe(name, LENGTH, SEED, store_root=str(store.root))
            for name in RECIPE_BENCHES
        }

    def test_parallel_recipes_match_serial(self, store, tmp_path):
        serial = evaluate_matrix(SPECS, self._recipes(store), jobs=1)
        with faults.traced(tmp_path / "trace"):
            parallel = evaluate_matrix(
                SPECS,
                self._recipes(TraceStore(tmp_path / "store2")),
                jobs=2,
                policy=TaskPolicy(retries=1, backoff=0.0),
            )
        assert parallel == serial
        assert parallel.failures == []
        # each cold trace was generated exactly once across every process
        counts = faults.trace_counts(tmp_path / "trace", site="materialize")
        for name in RECIPE_BENCHES:
            assert counts[("materialize", name)] == 1

    def test_worker_killed_mid_materialization(self, store):
        serial = evaluate_matrix(SPECS, self._recipes(store), jobs=1)
        kill_root = store.root.with_name("store-kill")
        cold = self._recipes(TraceStore(kill_root))
        # every fresh worker dies at its first generation attempt; only
        # the in-parent salvage (where exit never fires) can finish
        with faults.inject("materialize:exit:nth=1"):
            result = evaluate_matrix(
                SPECS, cold, jobs=2, policy=TaskPolicy(retries=1, backoff=0.0)
            )
        assert result == serial  # bit-identical final table
        assert result.failures == []
        kinds = {e.actual for e in health.events(component="parallel-pool")}
        assert "pool-broken" in kinds
        # the dead workers' single-flight locks were stolen, not wedged
        assert not list(kill_root.glob("*.lock"))

    def test_warm_store_skips_generation(self, store, tmp_path):
        recipes = self._recipes(store)
        evaluate_matrix(SPECS, recipes, jobs=1)  # warms the store
        with faults.traced(tmp_path / "trace"):
            evaluate_matrix(
                SPECS, recipes, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
            )
        counts = faults.trace_counts(tmp_path / "trace", site="materialize")
        assert counts == {}  # nothing regenerated: mmap-open only
