"""Unit tests for structured degradation-event reporting."""

import pytest

from repro import faults, health
from repro.health import DegradationEvent


@pytest.fixture(autouse=True)
def clean_log():
    health.clear()
    yield
    health.clear()


class TestDegradationEvent:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            DegradationEvent("c", "a", "b", severity="catastrophic")

    def test_degraded_property(self):
        assert not DegradationEvent("c", "x", "x", severity="info").degraded
        assert DegradationEvent("c", "x", "y", severity="degraded").degraded
        assert DegradationEvent("c", "x", "y", severity="error").degraded

    def test_ctx_round_trips(self):
        event = health.emit("c", "a", "b", cells=7, attempt=2)
        assert event.ctx == {"cells": 7, "attempt": 2}


class TestRecording:
    def test_emit_records(self):
        health.emit("pool", "worker-ok", "worker-raised", reason="boom")
        (event,) = health.events()
        assert event.component == "pool"
        assert event.actual == "worker-raised"
        assert event.severity == "degraded"

    def test_events_filters(self):
        health.emit("a", "x", "y", severity="degraded")
        health.emit("b", "x", "x", severity="info")
        health.emit("a", "x", "z", severity="error")
        assert len(health.events()) == 3
        assert len(health.events(component="a")) == 2
        assert len(health.events(severity="error")) == 1
        assert health.events(component="a", severity="error")[0].actual == "z"

    def test_clear(self):
        health.emit("a", "x", "y")
        health.clear()
        assert health.events() == []

    def test_bounded_buffer_counts_dropped(self, monkeypatch):
        monkeypatch.setattr(health, "_MAX_EVENTS", 5)
        for i in range(8):
            health.emit("a", "x", "y", severity="info", cells=1)
        assert len(health.events()) == 5
        assert "+3 older events dropped" in health.summary()


class TestEngineUsed:
    def test_expected_engine_is_info(self):
        event = health.engine_used("bimode-kernel", "c", expected="c", cells=10)
        assert event.severity == "info"

    def test_fallback_is_degraded(self):
        event = health.engine_used(
            "bimode-kernel", "numpy", expected="c", reason="no compiler"
        )
        assert event.severity == "degraded"
        assert event.expected == "c"
        assert event.actual == "numpy"

    def test_no_expectation_is_info(self):
        assert health.engine_used("gshare-kernel", "numpy").severity == "info"


class TestSummary:
    def test_coalesces_identical_events(self):
        for _ in range(3):
            health.engine_used("bimode-kernel", "c", expected="c", cells=4)
        summary = health.summary()
        assert summary.count("\n") == 0
        assert "x3" in summary
        assert "[12 cells]" in summary

    def test_degraded_only_hides_info(self):
        health.engine_used("gshare-kernel", "numpy", cells=2)
        assert health.summary(degraded_only=True) == ""
        health.emit("pool", "pool", "serial", reason="no fork")
        summary = health.summary(degraded_only=True)
        assert "pool -> serial" in summary
        assert "gshare-kernel" not in summary

    def test_empty_log_empty_summary(self):
        assert health.summary() == ""


class TestJsonMode:
    def test_off_by_default(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_HEALTH_JSON", raising=False)
        health.emit("pool", "ok", "broken", reason="boom")
        assert capsys.readouterr().err == ""

    def test_zero_means_off(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_HEALTH_JSON", "0")
        health.emit("pool", "ok", "broken")
        assert capsys.readouterr().err == ""

    def test_one_json_object_per_event_on_stderr(self, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_HEALTH_JSON", "1")
        health.emit("pool", "worker-ok", "worker-raised", reason="boom", cells=3)
        health.emit("cache", "write", "lost", severity="error")
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "severity": "degraded",
            "component": "pool",
            "expected": "worker-ok",
            "actual": "worker-raised",
            "reason": "boom",
            "context": {"cells": 3},
        }
        assert json.loads(lines[1])["severity"] == "error"

    def test_json_event_is_single_line_stable_order(self):
        event = health.emit("c", "a", "b", zebra=1, alpha=2)
        encoded = health.json_event(event)
        assert "\n" not in encoded
        # sort_keys: deterministic output for log processors
        assert encoded.index('"actual"') < encoded.index('"context"') < encoded.index('"severity"')

    def test_non_json_context_stringified(self):
        import json

        event = health.emit("c", "a", "b", path=__import__("pathlib").Path("/x"))
        assert json.loads(health.json_event(event))["context"]["path"] == "/x"


class TestListeners:
    def test_listener_sees_every_event(self):
        seen = []
        health.add_listener(seen.append)
        try:
            health.emit("a", "x", "y")
            health.emit("b", "x", "z", severity="error")
        finally:
            health.remove_listener(seen.append)
        assert [e.component for e in seen] == ["a", "b"]

    def test_removed_listener_stops_receiving(self):
        seen = []
        health.add_listener(seen.append)
        health.emit("a", "x", "y")
        health.remove_listener(seen.append)
        health.emit("b", "x", "y")
        assert [e.component for e in seen] == ["a"]

    def test_remove_unknown_listener_is_noop(self):
        health.remove_listener(lambda e: None)

    def test_raising_listener_never_breaks_recording(self):
        def bad(event):
            raise RuntimeError("listener bug")

        health.add_listener(bad)
        try:
            event = health.emit("a", "x", "y")
        finally:
            health.remove_listener(bad)
        assert event in health.events()


class TestProductionHooks:
    """The kernels actually report what ran."""

    def test_bimode_dispatch_reports_engine(self):
        from repro.sim import kernels
        from tests.conftest import make_toy_trace

        spec = "bimode:dir=4,hist=4,choice=4"
        kind, lane = kernels.kernel_for_spec(spec)
        kernels.family_rates(kind, [spec], [lane], make_toy_trace(length=200))
        events = health.events(component="bimode-kernel")
        assert len(events) == 1
        assert events[0].actual in ("c", "scalar")

    def test_gshare_batch_reports_engine(self):
        from repro.sim import kernels
        from tests.conftest import make_toy_trace

        spec = "gshare:index=4,hist=4"
        kind, lane = kernels.kernel_for_spec(spec)
        with faults.deny_compiler():
            kernels.family_rates(kind, [spec], [lane], make_toy_trace(length=200))
        events = health.events(component="gshare-kernel")
        assert len(events) == 1
        assert events[0].actual == "numpy"
        assert events[0].expected == "c"
        assert events[0].severity == "degraded"
        assert "REPRO_NO_CC" in events[0].reason
