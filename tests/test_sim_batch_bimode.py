"""Equivalence suite for the bi-mode kernel registry entry.

The compiled loops of :mod:`repro.sim.batch_bimode` (the fused family
pass for rates, the per-lane pair loop for predictions), reached
through the kernel registry on the compiled engine and with the
compiler vetoed (``REPRO_NO_CC=1``), must be bit-for-bit identical to
the scalar :class:`repro.core.bimode.BiModePredictor` — same per-branch
predictions, same integer miss counts — across ablation knobs,
degenerate table sizes, and degenerate traces.  Bi-mode has no numpy
form, so the vetoed ``numpy`` engine runs the scalar reference through
the same dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core.bimode import BiModePredictor
from repro.core.registry import make_predictor
from repro.sim import _cstep, kernels
from repro.sim import batch_bimode as bb
from repro.sim.engine import run
from repro.sim.runner import evaluate_matrix
from repro.traces.record import BranchTrace

from .conftest import make_toy_trace, scalar_predictions as _scalar_predictions

SPECS = [
    "bimode:dir=6,hist=4,choice=5",
    "bimode:dir=8,hist=8,choice=8",
    "bimode:dir=3,hist=0,choice=2",
    "bimode:dir=5,hist=5,choice=3,full_update=1",
    "bimode:dir=6,hist=6,choice=4,choice_hist=1",
    "bimode:dir=7,hist=3,choice=6,full_update=1,choice_hist=1",
]

DEGENERATE_SPECS = [
    "bimode:dir=0,hist=0,choice=0",  # 1-entry banks and 1-entry choice
    "bimode:dir=4,hist=2,choice=0",  # 1-entry choice table only
    "bimode:dir=0,hist=0,choice=3",  # 1-entry banks only
]

ENGINES = ["c", "numpy"]


def _use(monkeypatch, engine: str) -> None:
    """Require the compiler for ``c``; reach ``numpy`` (for bi-mode, its
    scalar reference) by vetoing the compiler."""
    if engine == "c":
        if not _cstep.available():
            pytest.skip("no C compiler available")
    else:
        monkeypatch.setenv("REPRO_NO_CC", "1")


def _lanes(specs):
    resolved = [kernels.kernel_for_spec(s) for s in specs]
    assert all(kind == "bimode" for kind, _ in resolved)
    return [lane for _, lane in resolved]


def _rates(specs, trace):
    return kernels.family_rates("bimode", specs, _lanes(specs), trace)


def _predictions(specs, trace):
    rows = kernels.family_detailed("bimode", specs, _lanes(specs), trace)
    return [row.result.predictions for row in rows]


@pytest.mark.parametrize("engine", ENGINES)
class TestBitExactness:
    def test_rates_match_scalar_engine(self, monkeypatch, engine, toy_trace):
        _use(monkeypatch, engine)
        for spec, rate in zip(SPECS, _rates(SPECS, toy_trace)):
            expected = run(make_predictor(spec), toy_trace).misprediction_rate
            assert rate == expected, spec

    def test_predictions_match_scalar_predictor(self, monkeypatch, engine):
        _use(monkeypatch, engine)
        trace = make_toy_trace(length=1500, seed=11, num_branches=40)
        for spec, got in zip(SPECS, _predictions(SPECS, trace)):
            expected = _scalar_predictions(spec, trace)
            diverging = np.flatnonzero(got != expected)
            assert diverging.size == 0, (
                f"{spec}: first divergence at branch {diverging[:1]}"
            )

    def test_degenerate_table_sizes(self, monkeypatch, engine):
        _use(monkeypatch, engine)
        trace = make_toy_trace(length=800, seed=3, num_branches=12)
        for spec, rate in zip(DEGENERATE_SPECS, _rates(DEGENERATE_SPECS, trace)):
            assert rate == run(make_predictor(spec), trace).misprediction_rate

    def test_empty_trace(self, monkeypatch, engine):
        _use(monkeypatch, engine)
        empty = BranchTrace(
            pcs=np.empty(0, dtype=np.int64), outcomes=np.empty(0, dtype=bool)
        )
        assert _rates(SPECS, empty) == [0.0] * len(SPECS)
        assert all(len(preds) == 0 for preds in _predictions(SPECS, empty))

    def test_single_branch_trace(self, monkeypatch, engine):
        _use(monkeypatch, engine)
        one = BranchTrace(
            pcs=np.array([24], dtype=np.int64), outcomes=np.array([True])
        )
        for spec, rate in zip(SPECS, _rates(SPECS, one)):
            assert rate == run(make_predictor(spec), one).misprediction_rate
        # power-on state predicts taken (taken bank starts weakly taken)
        assert all(preds.all() for preds in _predictions(SPECS, one))

    def test_matrix_rates_across_traces(self, monkeypatch, engine):
        """A whole (spec, trace) matrix through ``evaluate_matrix``:
        one family pass per trace, including an empty trace."""
        _use(monkeypatch, engine)
        traces = {
            "a": make_toy_trace(length=900, seed=5),
            "b": make_toy_trace(length=1300, seed=6, num_branches=48),
            "empty": BranchTrace(
                pcs=np.empty(0, dtype=np.int64), outcomes=np.empty(0, dtype=bool)
            ),
        }
        matrix = evaluate_matrix(SPECS[:3], traces, jobs=1)
        for spec in SPECS[:3]:
            for name, trace in traces.items():
                expected = run(make_predictor(spec), trace).misprediction_rate
                assert matrix[spec][name] == expected, (spec, name)


class TestLaneParsing:
    def test_round_trip_spec(self):
        """A spec, and a predictor built by hand from its lane's
        fields, read as the same lane."""
        for spec in SPECS + DEGENERATE_SPECS:
            (lane,) = _lanes([spec])
            predictor = BiModePredictor(
                lane.dir_bits,
                lane.hist_bits,
                lane.choice_bits,
                full_update=lane.full_update,
                choice_uses_history=lane.choice_uses_history,
            )
            assert bb.bimode_lane_of(predictor) == lane

    def test_defaults_follow_dir_bits(self):
        (lane,) = _lanes(["bimode:dir=9"])
        assert lane == bb.BiModeLane(dir_bits=9, hist_bits=9, choice_bits=9)

    @pytest.mark.parametrize(
        "spec",
        [
            "gshare:index=10,hist=10",  # not bi-mode
            "bimode:hist=4",  # dir missing
            "bimode:dir=4,hist=6",  # hist > dir
            "bimode:dir=-1",  # negative
            "bimode:dir=25,hist=4,choice=4",  # wider than a counter table
            "bimode:dir=4,hist=4,choice=25",
            "bimode:dir=4,meta=3",  # unknown knob
            "not a spec",
        ],
    )
    def test_rejects_non_kernel_specs(self, spec):
        assert kernels.kernel_for_spec(spec)[0] != "bimode"

    def test_lane_validation(self):
        with pytest.raises(ValueError):
            bb.BiModeLane(dir_bits=4, hist_bits=6, choice_bits=4)
        with pytest.raises(ValueError):
            bb.BiModeLane(dir_bits=-1, hist_bits=0, choice_bits=0)


class TestDispatch:
    """No caller pins bi-mode's engine, and the per-lane loop the
    dispatch calls takes none: it is compiled only, and refuses to run
    without a compiler instead of falling back silently."""

    def test_forced_c_without_compiler_raises(self):
        (lane,) = _lanes(SPECS[:1])
        with faults.deny_compiler():
            assert kernels.default_engine(kernels.PORTED["bimode"].tier) == "scalar"
            with pytest.raises(RuntimeError, match="not available"):
                bb.bimode_detailed(lane, make_toy_trace(length=10))

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError, match="mode"):
            kernels.family_rates(
                "bimode", SPECS[:1], _lanes(SPECS[:1]), make_toy_trace(length=10),
                mode="turbo",
            )
        with pytest.raises(TypeError, match="positional"):
            bb.bimode_detailed(
                _lanes(SPECS[:1])[0], make_toy_trace(length=10), "turbo", None
            )
