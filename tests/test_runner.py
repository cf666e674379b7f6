"""Unit tests for the cached multi-run orchestration."""

import json

import pytest

from repro.core.registry import make_predictor
from repro.sim.engine import run
from repro.sim.runner import (
    ResultCache,
    evaluate,
    evaluate_matrix,
    evaluate_specs,
    trace_key,
)
from tests.conftest import make_toy_trace


@pytest.fixture
def trace():
    t = make_toy_trace(length=800)
    t.metadata["profile_seed"] = 0
    return t


class TestTraceKey:
    def test_includes_name_length_seed(self, trace):
        assert trace_key(trace) == "toy-n800-s0"

    def test_anonymous_trace(self):
        t = make_toy_trace(length=10)
        t.name = ""
        assert trace_key(t).startswith("anon-")

    def test_seedless_traces_keyed_by_content(self):
        """Two different traces of equal name and length must not share
        a cache cell when neither carries a profile seed."""
        a = make_toy_trace(length=300, seed=1)
        b = make_toy_trace(length=300, seed=2)
        assert trace_key(a) != trace_key(b)
        # but the key is a pure function of content
        assert trace_key(a) == trace_key(make_toy_trace(length=300, seed=1))

    def test_seeded_key_ignores_content_hash(self, trace):
        assert trace_key(trace).endswith("-s0")


class TestResultCacheBatching:
    def test_put_many_single_write(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many("tkey", {"a": 0.1, "b": 0.2})
        data = json.loads((tmp_path / "results" / "tkey.json").read_text())
        assert data == {"a": 0.1, "b": 0.2}

    def test_put_many_empty_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many("tkey", {})
        assert not (tmp_path / "results").exists()

    def test_flush_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many("t1", {"a": 0.1})
        cache.put_many("t2", {"b": 0.2})
        names = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert names == ["t1.json", "t2.json"]

    def test_flush_preserves_existing_cells(self, tmp_path):
        ResultCache(tmp_path).put_many("tkey", {"old": 0.9})
        cache = ResultCache(tmp_path)
        cache.put_many("tkey", {"new": 0.1})
        data = json.loads((tmp_path / "results" / "tkey.json").read_text())
        assert data == {"new": 0.1, "old": 0.9}


class TestEvaluateSpecs:
    def test_batched_gshare_matches_scalar_engine(self, trace):
        specs = [
            "gshare:index=7,hist=7",
            "gshare:index=7,hist=0",
            "gshare:index=5,hist=3",
            "bimode:dir=6,hist=6,choice=6",
            "bimodal:index=6",
        ]
        rates = evaluate_specs(specs, trace)
        for spec in specs:
            assert rates[spec] == run(make_predictor(spec), trace).misprediction_rate

    def test_preserves_input_order_and_duplicates(self, trace):
        specs = ["gshare:index=5,hist=5", "bimodal:index=5", "gshare:index=5,hist=5"]
        rates = evaluate_specs(specs, trace)
        assert list(rates) == list(dict.fromkeys(specs))

    def test_one_cache_write_for_many_specs(self, trace, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        writes = []
        original = cache.flush

        def counting_flush():
            writes.append(1)
            original()

        monkeypatch.setattr(cache, "flush", counting_flush)
        evaluate_specs(
            ["gshare:index=6,hist=6", "gshare:index=6,hist=2", "bimodal:index=6"],
            trace,
            cache=cache,
        )
        assert len(writes) == 1

    def test_mixed_cached_and_fresh(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("gshare:index=6,hist=6", trace_key(trace), 0.777)
        rates = evaluate_specs(
            ["gshare:index=6,hist=6", "gshare:index=6,hist=1"], trace, cache=cache
        )
        assert rates["gshare:index=6,hist=6"] == 0.777
        fresh = run(
            make_predictor("gshare:index=6,hist=1"), trace
        ).misprediction_rate
        assert rates["gshare:index=6,hist=1"] == fresh


class TestResultCache:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("gshare:index=8,hist=8", "toy-n800-s0", 0.125)
        assert cache.get("gshare:index=8,hist=8", "toy-n800-s0") == 0.125

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("x", "y") is None

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put("spec", "tkey", 0.5)
        assert ResultCache(tmp_path).get("spec", "tkey") == 0.5

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("spec", "tkey", 0.5)
        (tmp_path / "results" / "tkey.json").write_text("{not json")
        assert ResultCache(tmp_path).get("spec", "tkey") is None

    def test_corrupt_file_quarantined_not_deleted(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put("spec", "tkey", 0.5)
        path = tmp_path / "results" / "tkey.json"
        path.write_text("{not json")
        assert ResultCache(tmp_path).get("spec", "tkey") is None
        assert not path.exists()
        quarantined = path.with_name(f"tkey.json.corrupt-{os.getpid()}")
        assert quarantined.read_text() == "{not json"
        # the cache is usable again immediately
        fresh = ResultCache(tmp_path)
        fresh.put("spec", "tkey", 0.25)
        assert ResultCache(tmp_path).get("spec", "tkey") == 0.25

    def test_non_object_json_quarantined(self, tmp_path):
        (tmp_path / "results").mkdir(parents=True)
        (tmp_path / "results" / "tkey.json").write_text("[0.5, 0.6]")
        assert ResultCache(tmp_path).get("spec", "tkey") is None
        assert list((tmp_path / "results").glob("tkey.json.corrupt-*"))

    @pytest.mark.parametrize(
        "bad", [-0.1, 1.5, "fast", True, None, [0.5], float("nan")]
    )
    def test_invalid_cells_dropped(self, tmp_path, bad):
        (tmp_path / "results").mkdir(parents=True)
        payload = {"good": 0.25, "bad": bad}
        (tmp_path / "results" / "tkey.json").write_text(
            json.dumps(payload, allow_nan=True)
        )
        cache = ResultCache(tmp_path)
        assert cache.get("good", "tkey") == 0.25
        assert cache.get("bad", "tkey") is None

    def test_flush_failure_keeps_other_tables(self, tmp_path):
        cache = ResultCache(tmp_path)
        # a directory squatting on a table path makes os.replace fail
        (tmp_path / "results").mkdir(parents=True)
        (tmp_path / "results" / "ok.json").mkdir()
        cache.put_many("ok", {"spec": 0.1})
        assert cache._dirty == {"ok"}
        (tmp_path / "results" / "ok.json").rmdir()
        (tmp_path / "results" / "blocked.json").mkdir()
        # one flush retries "ok" and fails "blocked", sorted first
        cache.put_many("blocked", {"spec": 0.2})
        # the failing table did not stop the healthy one landing …
        assert ResultCache(tmp_path).get("spec", "ok") == 0.1
        # … the blocked one failed but stayed dirty for a later retry
        assert cache._dirty == {"blocked"}
        assert cache.get("spec", "blocked") == 0.2  # still served from memory
        (tmp_path / "results" / "blocked.json").rmdir()
        assert cache.flush() == []
        assert ResultCache(tmp_path).get("spec", "blocked") == 0.2

    def test_flush_failure_reports_and_returns_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "results").mkdir(parents=True)
        (tmp_path / "results" / "t1.json").mkdir()
        cache.put_many("t1", {"spec": 0.5})
        failed = cache.flush()  # the retry fails again
        assert failed == ["t1"]
        from repro import health

        assert any(
            e.severity == "error" for e in health.events(component="result-cache")
        )
        health.clear()

    def test_flush_failure_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "results").mkdir(parents=True)
        (tmp_path / "results" / "t1.json").mkdir()
        cache.put_many("t1", {"spec": 0.5})
        leftovers = [
            p for p in (tmp_path / "results").iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []

    def test_one_file_per_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", "t1", 0.1)
        cache.put("b", "t1", 0.2)
        cache.put("a", "t2", 0.3)
        files = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert files == ["t1.json", "t2.json"]
        data = json.loads((tmp_path / "results" / "t1.json").read_text())
        assert data == {"a": 0.1, "b": 0.2}


class TestEvaluate:
    def test_computes_rate(self, trace):
        rate = evaluate("gshare:index=8,hist=8", trace)
        assert 0.0 <= rate <= 1.0

    def test_uses_cache(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        first = evaluate("gshare:index=8,hist=8", trace, cache=cache)
        # poison the cache to prove the second call reads it
        cache.put("gshare:index=8,hist=8", trace_key(trace), 0.999)
        second = evaluate("gshare:index=8,hist=8", trace, cache=cache)
        assert second == 0.999
        assert first != second

    def test_matrix(self, trace, tmp_path):
        other = make_toy_trace(length=400, seed=9)
        other.name = "other"
        matrix = evaluate_matrix(
            ["bimodal:index=6", "gshare:index=6,hist=6"],
            {"toy": trace, "other": other},
            cache=ResultCache(tmp_path),
        )
        assert set(matrix) == {"bimodal:index=6", "gshare:index=6,hist=6"}
        assert set(matrix["bimodal:index=6"]) == {"toy", "other"}

    def test_matrix_progress_callback(self, trace):
        calls = []
        evaluate_matrix(
            ["bimodal:index=4"],
            {"toy": trace},
            progress=lambda spec, bench, rate: calls.append((spec, bench)),
        )
        assert calls == [("bimodal:index=4", "toy")]
