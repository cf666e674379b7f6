"""Unit tests for suite loading and the trace cache."""

from repro.traces.record import BranchTrace
from repro.workloads.suite import (
    default_cache_dir,
    load_benchmark,
    load_suite,
    suite_names,
    trace_store,
)


class TestSuiteNames:
    def test_suites(self):
        assert len(suite_names("cint95")) == 6
        assert len(suite_names("ibs")) == 8
        assert len(suite_names("all")) == 14

    def test_unknown_suite(self):
        import pytest

        with pytest.raises(ValueError):
            suite_names("spec2017")


class TestLoadBenchmark:
    def test_generates_without_cache(self):
        trace = load_benchmark("xlisp", length=2000, use_cache=False)
        assert isinstance(trace, BranchTrace)
        assert len(trace) == 2000
        assert trace.name == "xlisp"

    def test_cache_roundtrip(self, tmp_path):
        a = load_benchmark("xlisp", length=1500, cache_dir=tmp_path)
        assert trace_store(tmp_path).has("xlisp", 1500, 0)
        b = load_benchmark("xlisp", length=1500, cache_dir=tmp_path)
        assert a == b
        assert b.metadata == a.metadata

    def test_cached_trace_is_read_only_mmap(self, tmp_path):
        import pytest

        trace = load_benchmark("xlisp", length=1500, cache_dir=tmp_path)
        with pytest.raises(ValueError):
            trace.outcomes[0] = not trace.outcomes[0]

    def test_cache_key_includes_seed(self, tmp_path):
        load_benchmark("xlisp", length=1000, seed=1, cache_dir=tmp_path)
        load_benchmark("xlisp", length=1000, seed=2, cache_dir=tmp_path)
        files = list((tmp_path / "store").iterdir())
        assert len(files) == 2

    def test_load_suite(self, tmp_path):
        traces = load_suite(["xlisp", "compress"], length=1000, cache_dir=tmp_path)
        assert set(traces) == {"xlisp", "compress"}
        assert all(len(t) == 1000 for t in traces.values())


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert "repro-bimode" in str(default_cache_dir())
