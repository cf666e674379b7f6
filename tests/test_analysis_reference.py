"""Equivalence suite for the optimized Section-4 analysis pipeline.

The fast path (compiled grouping drivers + counting sorts, see
``repro.core.grouping`` and ``repro.sim._cstep``) must produce
bit-identical summaries to the naive sort-based reference
implementations preserved in :mod:`repro.analysis.reference` — on every
predictor family with a detailed path, through both the compiled and the
pure-numpy fallback formulations, and on the degenerate inputs the
counting sorts are most likely to get wrong.
"""

import numpy as np
import pytest

from repro.analysis.bias import SNT, ST, WB, analyze_substreams, counter_bias_table
from repro.analysis.breakdown import misprediction_breakdown
from repro.analysis.reference import (
    analyze_substreams_reference,
    count_class_changes_reference,
    summarize_detailed_reference,
)
from repro.analysis.interference import count_class_changes
from repro.analysis.summary import summarize_detailed
from repro.core.registry import make_predictor
from repro.sim import _cstep
from repro.sim.engine import run_detailed
from repro.traces.record import BranchTrace
from tests.conftest import make_toy_trace
from tests.test_analysis_bias import detailed_from

DETAILED_SPECS = [
    "gshare:index=8,hist=6",
    "gshare:index=8,hist=8",
    "bimode:dir=7,hist=7,choice=6",
    "bimodal:index=8",
]


@pytest.fixture(scope="module")
def trace():
    return make_toy_trace(length=4000, seed=11)


def assert_analysis_equal(a, b):
    assert np.array_equal(a.stream_counter, b.stream_counter)
    assert np.array_equal(a.stream_pc, b.stream_pc)
    assert np.array_equal(a.stream_total, b.stream_total)
    assert np.array_equal(a.stream_taken, b.stream_taken)
    assert np.array_equal(a.stream_mispredicted, b.stream_mispredicted)
    assert np.array_equal(a.stream_class, b.stream_class)
    assert np.array_equal(a.access_stream, b.access_stream)
    assert np.array_equal(a.counter_dominant, b.counter_dominant)
    assert a.num_counters == b.num_counters


class TestFastVsReference:
    @pytest.mark.parametrize("spec", DETAILED_SPECS)
    def test_analysis_identical(self, spec, trace):
        detailed = run_detailed(make_predictor(spec), trace)
        assert_analysis_equal(
            analyze_substreams(detailed), analyze_substreams_reference(detailed)
        )

    @pytest.mark.parametrize("spec", DETAILED_SPECS)
    def test_summary_identical(self, spec, trace):
        detailed = run_detailed(make_predictor(spec), trace)
        fast = summarize_detailed(detailed, include_bias_table=True)
        ref = summarize_detailed_reference(detailed, include_bias_table=True)
        assert fast == ref

    @pytest.mark.parametrize("spec", DETAILED_SPECS)
    def test_class_changes_identical(self, spec, trace):
        detailed = run_detailed(make_predictor(spec), trace)
        analysis = analyze_substreams(detailed)
        assert count_class_changes(detailed, analysis) == count_class_changes_reference(
            detailed, analysis
        )

    def test_numpy_fallback_identical(self, trace, monkeypatch):
        """With the compiled drivers disabled, the pure-numpy counting
        sorts must still match both the compiled result and the
        reference."""
        spec = "gshare:index=8,hist=6"
        detailed = run_detailed(make_predictor(spec), trace)
        with_cc = summarize_detailed(detailed, include_bias_table=True)
        monkeypatch.setattr(_cstep, "available", lambda: False)
        without_cc = summarize_detailed(detailed, include_bias_table=True)
        assert without_cc == with_cc
        assert without_cc == summarize_detailed_reference(
            detailed, include_bias_table=True
        )

    def test_kernel_modes_identical(self, trace, monkeypatch):
        """Scalar and batch detailed kernels feed the same analysis."""
        spec = "bimode:dir=7,hist=7,choice=6"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        scalar = summarize_detailed(run_detailed(make_predictor(spec), trace))
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        batch = summarize_detailed(run_detailed(make_predictor(spec), trace))
        assert scalar == batch


class TestAnalysisEdgeCases:
    def test_empty_trace(self):
        detailed = run_detailed(
            make_predictor("gshare:index=6,hist=4"), BranchTrace.empty("none")
        )
        analysis = analyze_substreams(detailed)
        assert analysis.num_streams == 0
        assert len(analysis.access_stream) == 0
        assert (analysis.counter_dominant == -1).all()
        bd = misprediction_breakdown(analysis)
        assert bd.overall == 0.0 and bd.total_branches == 0
        assert summarize_detailed(detailed) == summarize_detailed_reference(detailed)

    def test_single_counter_table(self):
        # every access lands on the only counter; streams split by PC only
        detailed = detailed_from(
            pcs=[1, 2, 1, 2, 1, 2],
            counter_ids=[0, 0, 0, 0, 0, 0],
            outcomes=[True, False, True, False, True, False],
            mispredicted=[False, True, False, False, False, True],
            num_counters=1,
        )
        analysis = analyze_substreams(detailed)
        assert analysis.num_streams == 2
        assert counter_bias_table(analysis).shape == (1, 3)
        assert_analysis_equal(analysis, analyze_substreams_reference(detailed))
        assert summarize_detailed(detailed) == summarize_detailed_reference(detailed)

    def test_all_wb_stream(self):
        # one branch, 50 % taken: a single WB stream, so every miss is WB
        detailed = detailed_from(
            pcs=[7] * 8,
            counter_ids=[3] * 8,
            outcomes=[True, False] * 4,
            mispredicted=[True, False, False, True, False, False, True, False],
            num_counters=4,
        )
        analysis = analyze_substreams(detailed)
        assert (analysis.stream_class == WB).all()
        bd = misprediction_breakdown(analysis)
        assert bd.snt == 0.0 and bd.st == 0.0
        assert bd.wb == pytest.approx(3 / 8)
        assert bd.overall == pytest.approx(detailed.result.misprediction_rate)
        assert summarize_detailed(detailed) == summarize_detailed_reference(detailed)

    def test_exact_boundary_rates(self):
        # taken rates landing exactly on 0.9 and 0.1 must classify as
        # strong (>= / <=), identically in the fast and reference paths
        pcs = [1] * 10 + [2] * 10
        outcomes = [True] * 9 + [False] + [True] + [False] * 9
        detailed = detailed_from(
            pcs=pcs,
            counter_ids=[0] * 10 + [1] * 10,
            outcomes=outcomes,
            num_counters=2,
        )
        analysis = analyze_substreams(detailed)
        by_pc = dict(zip(analysis.stream_pc, analysis.stream_class))
        assert by_pc[1] == ST  # exactly 0.9 taken
        assert by_pc[2] == SNT  # exactly 0.1 taken
        assert_analysis_equal(analysis, analyze_substreams_reference(detailed))

    def test_edge_cases_survive_numpy_fallback(self, monkeypatch):
        monkeypatch.setattr(_cstep, "available", lambda: False)
        self.test_single_counter_table()
        self.test_all_wb_stream()
        self.test_exact_boundary_rates()
