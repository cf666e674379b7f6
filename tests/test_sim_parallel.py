"""Unit tests for process-parallel sweep execution."""

import os

import pytest

from repro.core.registry import make_predictor
from repro.sim.parallel import (
    FailedCell,
    TaskPolicy,
    TraceRecipe,
    effective_jobs,
    parallel_jobs,
    recipe_of,
)
from repro.sim.runner import ResultCache, evaluate_matrix, evaluate_specs, trace_key
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile
from tests.conftest import make_toy_trace

SPECS = [
    "gshare:index=8,hist=8",
    "gshare:index=8,hist=2",
    "bimode:dir=6,hist=6,choice=6",
]


@pytest.fixture(scope="module")
def workload_pair():
    return {
        name: generate_trace(get_profile(name), length=8_000, seed=5)
        for name in ("xlisp", "compress")
    }


class TestTraceRecipe:
    def test_generated_trace_has_recipe(self, workload_pair):
        trace = workload_pair["xlisp"]
        assert recipe_of(trace) == TraceRecipe(name="xlisp", length=8_000, seed=5)

    def test_toy_trace_has_none(self):
        assert recipe_of(make_toy_trace(length=100)) is None

    def test_unknown_profile_name_has_none(self, workload_pair):
        trace = workload_pair["xlisp"]
        renamed = type(trace)(
            pcs=trace.pcs, outcomes=trace.outcomes, name="not-a-profile"
        )
        renamed.metadata.update(trace.metadata)
        assert recipe_of(renamed) is None

    def test_anonymous_trace_has_none(self, workload_pair):
        trace = workload_pair["xlisp"]
        anon = type(trace)(pcs=trace.pcs, outcomes=trace.outcomes, name="")
        anon.metadata.update(trace.metadata)
        assert recipe_of(anon) is None


class TestJobsKnob:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel_jobs() == 1
        assert parallel_jobs(default=3) == 3

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert parallel_jobs() == 4

    @pytest.mark.parametrize("env", ["0", "-1", "auto", "AUTO"])
    def test_zero_and_auto_mean_per_cpu(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_JOBS", env)
        assert parallel_jobs() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("env", ["many", "2.5", "1 2", "0x2"])
    def test_junk_raises(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            parallel_jobs()

    def test_whitespace_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert parallel_jobs() == 1
        assert parallel_jobs(default=4) == 4

    def test_surrounding_whitespace_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert parallel_jobs() == 3

    def test_default_never_below_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel_jobs(default=0) == 1
        assert parallel_jobs(default=-2) == 1

    def test_effective_jobs_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert effective_jobs(None) == 5
        assert effective_jobs(2) == 2
        assert effective_jobs(0) == (os.cpu_count() or 1)

    def test_effective_jobs_negative_means_per_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(-3) == (os.cpu_count() or 1)
        assert effective_jobs(None) == 1


class TestParallelMatrix:
    def test_matches_serial(self, workload_pair, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        serial = evaluate_matrix(
            SPECS, workload_pair, cache=ResultCache(tmp_path / "a"), jobs=1
        )
        parallel = evaluate_matrix(
            SPECS, workload_pair, cache=ResultCache(tmp_path / "b"), jobs=2
        )
        assert parallel == serial

    def test_recipeless_traces_run_locally(self, tmp_path):
        toys = {"t1": make_toy_trace(length=500, seed=1), "t2": make_toy_trace(length=500, seed=2)}
        toys["t1"].name, toys["t2"].name = "t1", "t2"
        parallel = evaluate_matrix(SPECS, toys, jobs=4)
        serial = {
            spec: {b: evaluate_specs([spec], t)[spec] for b, t in toys.items()}
            for spec in SPECS
        }
        assert parallel == serial

    def test_refused_spec_quarantines_only_its_cell(self):
        """A spec the constructor refuses fails as its own cell; the
        valid spec sharing its trace still gets its rate."""
        toy = make_toy_trace(length=2_000)
        good, bad = "gshare:index=6", "gap:hist=4,addr=0"
        with pytest.raises(ValueError) as refused:
            make_predictor(bad)
        matrix = evaluate_matrix([good, bad], {"a": toy}, jobs=1)
        assert matrix[good] == {"a": evaluate_specs([good], toy)[good]}
        assert matrix[bad] == {}
        (cell,) = matrix.failures
        assert isinstance(cell, FailedCell)
        assert (cell.bench, cell.specs, cell.error_type) == ("a", (bad,), "ValueError")
        assert cell.message == str(refused.value)

    def test_merges_into_cache(self, workload_pair, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = ResultCache(tmp_path / "d")
        matrix = evaluate_matrix(SPECS, workload_pair, cache=cache, jobs=2)
        for bench, trace in workload_pair.items():
            for spec in SPECS:
                assert cache.get(spec, trace_key(trace)) == matrix[spec][bench]
        # and a fresh instance reads the same cells back from disk
        reread = ResultCache(tmp_path / "d")
        tkey = trace_key(workload_pair["xlisp"])
        assert reread.get(SPECS[0], tkey) == matrix[SPECS[0]]["xlisp"]

    def test_cached_cells_short_circuit(self, workload_pair, tmp_path):
        cache = ResultCache(tmp_path)
        poisoned = 0.123456
        for trace in workload_pair.values():
            cache.put_many(trace_key(trace), {spec: poisoned for spec in SPECS})
        matrix = evaluate_matrix(SPECS, workload_pair, cache=cache, jobs=2)
        assert all(
            rate == poisoned for rates in matrix.values() for rate in rates.values()
        )

    def test_progress_covers_every_cell(self, workload_pair, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        calls = []
        evaluate_matrix(
            SPECS,
            workload_pair,
            jobs=2,
            progress=lambda spec, bench, rate: calls.append((spec, bench)),
        )
        assert sorted(calls) == sorted(
            (spec, bench) for spec in SPECS for bench in workload_pair
        )


class TestSerialFallback:
    def test_pool_unavailable_falls_back_to_serial(self, workload_pair, monkeypatch):
        """A platform without working process pools degrades to the
        serial path — same rates, no attempts charged, event recorded."""
        import repro.sim.parallel as par
        from repro import health

        def _no_pool(*args, **kwargs):
            raise OSError("process pools unavailable")

        monkeypatch.setattr(par, "ProcessPoolExecutor", _no_pool)
        health.clear()
        try:
            result = evaluate_matrix(SPECS, workload_pair, jobs=2)
            events = health.events(component="parallel-pool")
        finally:
            health.clear()
        serial = evaluate_matrix(SPECS, workload_pair, jobs=1)
        assert result == serial
        assert result.failures == []
        assert any(
            e.actual == "serial" and e.severity == "degraded" for e in events
        )

    def test_mixed_recipe_and_recipeless_traces(self, workload_pair, tmp_path, monkeypatch):
        """Recipe-less traces run in-parent while recipe traces use the
        pool; the merged matrix covers both."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        toy = make_toy_trace(length=500, seed=3)
        toy.name = "toy"
        mixed = dict(workload_pair)
        mixed["toy"] = toy
        parallel = evaluate_matrix(SPECS, mixed, jobs=2)
        serial = evaluate_matrix(SPECS, mixed, jobs=1)
        assert parallel == serial
        assert parallel.failures == []


class TestTaskPolicy:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES", "REPRO_TASK_BACKOFF"):
            monkeypatch.delenv(var, raising=False)
        policy = TaskPolicy.from_env()
        assert policy.timeout is None
        assert policy.retries == 2
        assert policy.backoff == 0.1

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0")
        policy = TaskPolicy.from_env()
        assert policy.timeout == 12.5
        assert policy.retries == 5
        assert policy.backoff == 0.0

    def test_zero_timeout_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert TaskPolicy.from_env().timeout is None

    def test_negative_retries_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-4")
        assert TaskPolicy.from_env().retries == 0

    @pytest.mark.parametrize(
        "var", ["REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES", "REPRO_TASK_BACKOFF"]
    )
    def test_junk_raises_with_knob_name(self, monkeypatch, var):
        monkeypatch.setenv(var, "soonish")
        with pytest.raises(ValueError, match=var):
            TaskPolicy.from_env()
