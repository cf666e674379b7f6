"""Simulation-engine tests, including the cross-predictor batch/step
equivalence matrix — the core correctness property of the fast paths."""

import numpy as np
import pytest

from repro.core.registry import make_predictor
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

    def test_warmup_excluded_from_result(self, trace):
        result = run(make_predictor("gshare:index=8"), trace, warmup=500)
        assert result.num_branches == len(trace) - 500

    def test_warmup_still_trains(self, trace):
        """Post-warm-up predictions must match the corresponding tail of
        a full run (warm-up only changes what's reported)."""
        full = run(make_predictor("gshare:index=8"), trace)
        warm = run(make_predictor("gshare:index=8"), trace, warmup=500)
        assert np.array_equal(full.predictions[500:], warm.predictions)

    def test_warmup_validation(self, trace):
        with pytest.raises(ValueError):
            run(make_predictor("bimodal:index=4"), trace, warmup=-1)
        with pytest.raises(ValueError):
            run(make_predictor("bimodal:index=4"), trace, warmup=len(trace) + 1)

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

    def test_warmup_slices_attribution(self, trace):
        """Warm-up must drop the same prefix from the result AND the
        per-access attribution arrays, leaving them aligned."""
        full = run_detailed(make_predictor("gshare:index=8"), trace)
        warm = run_detailed(make_predictor("gshare:index=8"), trace, warmup=500)
        assert warm.result.num_branches == len(trace) - 500
        assert np.array_equal(warm.result.predictions, full.result.predictions[500:])
        assert np.array_equal(warm.counter_ids, full.counter_ids[500:])
        assert np.array_equal(warm.pcs, full.pcs[500:])
        assert warm.num_counters == full.num_counters

    def test_warmup_matches_plain_run(self, trace):
        plain = run(make_predictor("bimode:dir=7,hist=7,choice=7"), trace, warmup=300)
        detailed = run_detailed(
            make_predictor("bimode:dir=7,hist=7,choice=7"), trace, warmup=300
        )
        assert np.array_equal(plain.predictions, detailed.result.predictions)

    def test_warmup_validation(self, trace):
        with pytest.raises(ValueError):
            run_detailed(make_predictor("gshare:index=8"), trace, warmup=-1)
        with pytest.raises(ValueError):
            run_detailed(make_predictor("gshare:index=8"), trace, warmup=len(trace) + 1)


class TestDetailedKernelDispatch:
    @pytest.mark.parametrize(
        "spec", ["gshare:index=8,hist=5", "bimode:dir=7,hist=7,choice=6"]
    )
    def test_batch_matches_scalar(self, spec, trace, monkeypatch):
        """The batch attribution kernels must reproduce the scalar loop
        bit-for-bit: predictions AND per-access counter ids."""
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        scalar = run_detailed(make_predictor(spec), trace)
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        batch = run_detailed(make_predictor(spec), trace)
        assert np.array_equal(scalar.result.predictions, batch.result.predictions)
        assert np.array_equal(scalar.counter_ids, batch.counter_ids)
        assert scalar.num_counters == batch.num_counters

    @pytest.mark.parametrize(
        "spec", ["gshare:index=8,hist=5", "bimode:dir=7,hist=7,choice=6"]
    )
    def test_c_pin_without_compiler_raises(self, spec, trace, monkeypatch):
        """Under the explicit ``c`` pin a vetoed compiler must raise,
        never silently run the numpy form or the scalar loop."""
        monkeypatch.setenv("REPRO_KERNEL", "c")
        monkeypatch.setenv("REPRO_NO_CC", "1")
        with pytest.raises(RuntimeError, match="REPRO_KERNEL=c"):
            run_detailed(make_predictor(spec), trace)

    def test_auto_falls_back_without_kernel(self, trace, monkeypatch):
        """The same kernel-less scheme under ``auto`` keeps the
        health-reported scalar fallback."""
        from repro import health

        spec = "biasfilter:table=6,run=2,sub=bimode,sub_index=6,sub_hist=6"
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        health.clear()
        auto = run_detailed(make_predictor(spec), trace)
        assert any(
            e.actual == "scalar"
            for e in health.events(component="detailed-kernel")
        )
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        scalar = run_detailed(make_predictor(spec), trace)
        assert np.array_equal(scalar.result.predictions, auto.result.predictions)
        assert np.array_equal(scalar.counter_ids, auto.counter_ids)

    def test_no_reset_uses_scalar_path(self, trace):
        """reset=False continues live predictor state, which the batch
        kernels (fresh lane tables) cannot honour."""
        p = make_predictor("gshare:index=8")
        run_detailed(p, trace)
        second = run_detailed(p, trace, reset=False)
        cold = run_detailed(make_predictor("gshare:index=8"), trace)
        assert (
            second.result.misprediction_rate <= cold.result.misprediction_rate
        )

    @pytest.mark.parametrize("pin", ["auto", "scalar"])
    def test_keeps_display_name_and_predictor_state(self, pin, trace, monkeypatch):
        """Through the registry the row carries the predictor's display
        name (not its canonical spec), and the caller's predictor is
        left at power-on state on every engine."""
        spec = "biasfilter:table=6,run=2,sub_index=6,sub_hist=4"
        monkeypatch.setenv("REPRO_KERNEL", pin)
        p = make_predictor(spec)
        detailed = run_detailed(p, trace)
        assert detailed.result.predictor_name == p.name != spec
        cold = run(make_predictor(spec), trace).predictions
        assert np.array_equal(run(p, trace, reset=False).predictions, cold)

    def test_invalid_mode_rejected(self, trace, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError):
            run_detailed(make_predictor("gshare:index=8"), trace)


class TestEmptyTrace:
    def test_all_predictors_handle_empty(self):
        from repro.traces.record import BranchTrace

        empty = BranchTrace.empty("none")
        for spec in ALL_SPECS:
            result = run(make_predictor(spec), empty)
            assert result.num_branches == 0
            assert result.misprediction_rate == 0.0
