"""Simulation-engine tests, including the cross-predictor batch/step
equivalence matrix — the core correctness property of the fast paths."""

import numpy as np
import pytest

from repro import faults
from repro.core.registry import make_predictor
from repro.sim import kernels
from repro.sim.engine import run, run_detailed, run_steps
from tests.conftest import ALL_SPECS, make_toy_trace


@pytest.fixture(scope="module")
def trace():
    return make_toy_trace(length=1500, seed=23)


class TestEquivalence:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_batch_equals_step(self, spec, trace):
        batch = run(make_predictor(spec), trace)
        steps = run_steps(make_predictor(spec), trace)
        assert np.array_equal(batch.predictions, steps.predictions), spec

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_rerun_is_deterministic(self, spec, trace):
        p = make_predictor(spec)
        first = run(p, trace).predictions
        second = run(p, trace).predictions
        assert np.array_equal(first, second)


class TestRun:
    def test_result_fields(self, trace):
        result = run(make_predictor("gshare:index=8"), trace)
        assert result.trace_name == "toy"
        assert result.predictor_name == "gshare:index=8,hist=8"
        assert result.num_branches == len(trace)

    def test_no_reset_continues_state(self, trace):
        p = make_predictor("bimodal:index=8")
        run(p, trace)
        cold = run(make_predictor("bimodal:index=8"), trace).misprediction_rate
        warm = run(p, trace, reset=False).misprediction_rate
        assert warm <= cold  # second pass benefits from trained counters


class TestRunDetailed:
    def test_matches_plain_run(self, trace):
        plain = run(make_predictor("bimode:dir=7,hist=7,choice=7"), trace)
        detailed = run_detailed(make_predictor("bimode:dir=7,hist=7,choice=7"), trace)
        assert np.array_equal(plain.predictions, detailed.result.predictions)

    def test_records_pcs(self, trace):
        detailed = run_detailed(make_predictor("gshare:index=8"), trace)
        assert np.array_equal(detailed.pcs, trace.pcs)

    def test_every_registered_scheme_has_detailed(self, trace):
        """Since the detailed wave, every registered scheme runs the
        Section-4 pipeline (gskew was the canonical refusal before)."""
        detailed = run_detailed(make_predictor("gskew:bank=6"), trace)
        assert detailed.num_counters == 3 * (1 << 6)


class TestDetailedKernelDispatch:
    @pytest.mark.parametrize(
        "spec", ["gshare:index=8,hist=5", "bimode:dir=7,hist=7,choice=6"]
    )
    def test_batch_matches_scalar(self, spec, trace):
        """The batch attribution kernels must reproduce the scalar loop
        bit-for-bit: predictions AND per-access counter ids."""
        scalar = make_predictor(spec).simulate_detailed(trace)
        batch = run_detailed(make_predictor(spec), trace)
        assert np.array_equal(scalar.result.predictions, batch.result.predictions)
        assert np.array_equal(scalar.counter_ids, batch.counter_ids)
        assert scalar.num_counters == batch.num_counters

    @pytest.mark.parametrize(
        "spec", ["gshare:index=8,hist=5", "bimode:dir=7,hist=7,choice=6"]
    )
    def test_c_pin_without_compiler_raises(self, spec, trace):
        """No caller pins an engine; the per-lane kernel, compiled only,
        raises under a vetoed compiler rather than silently running the
        scalar loop."""
        kind, lane = kernels.kernel_for_spec(spec)
        with faults.deny_compiler():
            assert kernels.default_engine(kernels.PORTED[kind].tier) != "c"
            with pytest.raises(RuntimeError, match="not available"):
                kernels.PORTED[kind].detailed(lane, trace, None)

    def test_auto_falls_back_without_kernel(self, trace):
        """A kernel-less scheme keeps the health-reported scalar
        fallback."""
        from repro import health

        spec = "biasfilter:table=6,run=2,sub=bimode,sub_index=6,sub_hist=6"
        health.clear()
        auto = run_detailed(make_predictor(spec), trace)
        assert any(
            e.actual == "scalar"
            for e in health.events(component="detailed-kernel")
        )
        scalar = make_predictor(spec).simulate_detailed(trace)
        assert np.array_equal(scalar.result.predictions, auto.result.predictions)
        assert np.array_equal(scalar.counter_ids, auto.counter_ids)

    @pytest.mark.parametrize("pin", ["auto", "scalar"])
    def test_keeps_display_name_and_predictor_state(self, pin, trace, monkeypatch):
        """Through the registry the row carries the predictor's display
        name (not its canonical spec), and the caller's predictor is
        left at power-on state on every engine: the compiled loop, or
        with the compiler vetoed the bias filter's scalar reference."""
        spec = "biasfilter:table=6,run=2,sub_index=6,sub_hist=4"
        if pin == "scalar":
            monkeypatch.setenv("REPRO_NO_CC", "1")
        p = make_predictor(spec)
        detailed = run_detailed(p, trace)
        assert detailed.result.predictor_name == p.name != spec
        cold = run(make_predictor(spec), trace).predictions
        assert np.array_equal(run(p, trace, reset=False).predictions, cold)

    def test_invalid_mode_rejected(self, trace):
        """The dispatch ``run_detailed`` shares takes no engine pin, and
        neither does the per-lane kernel it calls."""
        kind, lane = kernels.kernel_for_spec("gshare:index=8")
        with pytest.raises(TypeError, match="mode"):
            kernels.family_detailed(
                kind, ["gshare:index=8"], [lane], trace, mode="turbo"
            )
        with pytest.raises(TypeError, match="positional"):
            kernels.PORTED[kind].detailed(lane, trace, "turbo", None)

    def test_scalar_path_leaves_predictor_state(self, trace):
        """A predictor no lane kernel runs (a kernel veto) takes the
        scalar loop on a power-on copy: the caller's half-trained
        predictor is left as it was, and the row equals the reference
        from power-on state."""
        spec = "perceptron:index=5,hist=6,w=31"
        assert kernels.kernel_for_spec(spec) == ("scalar", None)

        def half_trained():
            p = make_predictor(spec)
            run(p, trace[:700])
            return p

        want_next = run(half_trained(), trace[700:], reset=False).predictions
        p = half_trained()
        detailed = run_detailed(p, trace)
        assert np.array_equal(run(p, trace[700:], reset=False).predictions, want_next)
        want = make_predictor(spec).simulate_detailed(trace)
        assert np.array_equal(detailed.result.predictions, want.result.predictions)
        assert np.array_equal(detailed.counter_ids, want.counter_ids)


class TestEmptyTrace:
    def test_all_predictors_handle_empty(self):
        from repro.traces.record import BranchTrace

        empty = BranchTrace.empty("none")
        for spec in ALL_SPECS:
            result = run(make_predictor(spec), empty)
            assert result.num_branches == 0
            assert result.misprediction_rate == 0.0
