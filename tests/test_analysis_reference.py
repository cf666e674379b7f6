"""Equivalence suite for the optimized Section-4 analysis pipeline.

The compiled drivers (``repro.sim._cstep``) group accesses into
substreams with one first-seen hash pass and sort only the distinct
(counter, pc) keys; the pure-numpy fallback groups them with stable
counting sorts (``repro.core.grouping``).  Both must produce
bit-identical results to the naive sort-based reference implementations
preserved in :mod:`repro.analysis.reference` — on every predictor family
with a detailed path, and on the inputs the hash grouping is most likely
to get wrong: tables that grow mid-trace, keys wider than 32 bits,
streams first seen in descending order, single accesses and PCs at the
ends of the 64-bit range.  The drivers' preconditions raise
``ValueError`` instead of reading or writing out of bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bias import (
    SNT,
    ST,
    WB,
    analyze_substreams,
    counter_bias_table,
    pc_code_stream,
)
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


def assert_all_paths_agree(detailed, monkeypatch):
    """Compiled, numpy-fallback and reference analyses are identical,
    and so are their Table-4 counts; returns the compiled analysis."""
    compiled = analyze_substreams(detailed)
    reference = analyze_substreams_reference(detailed)
    assert_analysis_equal(compiled, reference)
    for a, b in zip(vars(compiled).values(), vars(reference).values()):
        assert getattr(a, "dtype", None) == getattr(b, "dtype", None)
    changes = count_class_changes(detailed, compiled)
    assert changes == count_class_changes_reference(detailed, reference)
    with monkeypatch.context() as m:
        m.setattr(_cstep, "available", lambda: False)
        fallback = analyze_substreams(detailed)
        assert_analysis_equal(fallback, reference)
        assert count_class_changes(detailed, fallback) == changes
    return compiled


def random_detailed(rng, n, pcs, num_counters):
    """``n`` random accesses over the given distinct PCs and counters."""
    return detailed_from(
        pcs=rng.choice(pcs, n),
        counter_ids=rng.integers(0, num_counters, n),
        outcomes=rng.random(n) < 0.7,
        mispredicted=rng.random(n) < 0.2,
        num_counters=num_counters,
    )


class TestHashGroupingEdgeCases:
    def test_table_grows_mid_trace(self, monkeypatch):
        # >= 100K distinct streams: the first-seen table doubles from
        # its initial 16 slots many times while ids are being handed out
        rng = np.random.default_rng(1)
        detailed = random_detailed(rng, 300_000, np.arange(2000) * 4, 4096)
        analysis = assert_all_paths_agree(detailed, monkeypatch)
        assert analysis.num_streams >= 100_000

    def test_keys_wider_than_32_bits(self, monkeypatch):
        # counter * num_pcs + pc_code needs more than 32 bits
        rng = np.random.default_rng(2)
        num_counters = 2**20
        detailed = random_detailed(rng, 50_000, np.arange(5000) * 8, num_counters)
        detailed.counter_ids[-1] = num_counters - 1
        analysis = assert_all_paths_agree(detailed, monkeypatch)
        assert len(np.unique(detailed.pcs)) > 4096
        assert (num_counters - 1) * len(np.unique(detailed.pcs)) >= 2**32
        assert analysis.stream_counter[-1] == num_counters - 1

    def test_streams_first_seen_in_descending_order(self, monkeypatch):
        # first-seen ids run opposite to the (counter, pc) order, so
        # every access is renumbered through the rank table
        pairs = [(c, p) for c in range(7, -1, -1) for p in range(5, -1, -1)]
        rng = np.random.default_rng(3)
        tail = rng.integers(0, len(pairs), 400)
        order = list(range(len(pairs))) + tail.tolist()
        detailed = detailed_from(
            pcs=[0x400 + 4 * pairs[i][1] for i in order],
            counter_ids=[pairs[i][0] for i in order],
            outcomes=rng.random(len(order)) < 0.5,
            mispredicted=rng.random(len(order)) < 0.3,
            num_counters=8,
        )
        analysis = assert_all_paths_agree(detailed, monkeypatch)
        assert analysis.num_streams == len(pairs)
        assert analysis.access_stream[0] == len(pairs) - 1
        assert analysis.access_stream[len(pairs) - 1] == 0

    def test_single_access(self, monkeypatch):
        detailed = detailed_from(
            pcs=[0x1234], counter_ids=[5], outcomes=[True], num_counters=9
        )
        analysis = assert_all_paths_agree(detailed, monkeypatch)
        assert analysis.num_streams == 1
        assert analysis.access_stream.tolist() == [0]

    def test_pcs_across_the_64_bit_range(self, monkeypatch):
        top = 2**64 - 1
        pcs = np.array(
            [top, 2**32, 0, top, 2**63, 2**32 + 4, 7, 0, 2**63 - 1, top],
            dtype=np.uint64,
        )
        for compiled in (True, False):
            with monkeypatch.context() as m:
                if not compiled:
                    m.setattr(_cstep, "available", lambda: False)
                for arr in (pcs, pcs.view(np.int64)):
                    unique_pcs, dense = pc_code_stream(arr)
                    want_unique, want_dense = np.unique(arr, return_inverse=True)
                    assert unique_pcs.dtype == arr.dtype
                    assert np.array_equal(unique_pcs, want_unique)
                    assert dense.dtype == np.int32
                    assert np.array_equal(dense, want_dense)
        # through the analysis (DetailedSimulation stores PCs as int64)
        detailed = detailed_from(
            pcs=pcs.view(np.int64),
            counter_ids=[0, 1, 1, 0, 2, 2, 0, 1, 2, 0],
            outcomes=[True, False] * 5,
            num_counters=3,
        )
        assert_all_paths_agree(detailed, monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([0, 4, 8, 0x4000, 2**40, 2**63 - 1]),
                st.integers(0, 5),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=80,
        ),
        spare_counters=st.integers(0, 3),
    )
    def test_random_streams_agree(self, data, spare_counters):
        pcs, counters, outcomes, missed = (list(col) for col in zip(*data))
        detailed = detailed_from(
            pcs=pcs,
            counter_ids=counters,
            outcomes=outcomes,
            mispredicted=missed,
            num_counters=max(counters) + 1 + spare_counters,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_all_paths_agree(detailed, monkeypatch)


needs_cc = pytest.mark.skipif(
    not _cstep.available(), reason="compiled driver unavailable"
)


@needs_cc
class TestDriverPreconditions:
    """Bad inputs raise ValueError instead of reaching the C loops."""

    def group_args(self, n=6):
        return (
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int32),
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )

    def test_substream_group_rejects_out_of_range_counter(self):
        cid, pc, taken, miss = self.group_args()
        for bad in (4, -1, 2**40):
            cid[3] = bad
            with pytest.raises(ValueError, match="counter id"):
                _cstep.substream_group(cid, pc, taken, miss, 4, 1)

    def test_substream_group_rejects_out_of_range_pc_code(self):
        cid, pc, taken, miss = self.group_args()
        pc[2] = 1
        with pytest.raises(ValueError, match="pc code"):
            _cstep.substream_group(cid, pc, taken, miss, 4, 1)

    def test_class_changes_rejects_out_of_range_counter(self):
        cid = np.array([0, 1, 4, 1], dtype=np.int32)
        access = np.zeros(4, dtype=np.int64)
        roles = np.zeros(1, dtype=np.int8)
        with pytest.raises(ValueError, match="counter id"):
            _cstep.class_changes(cid, access, roles, 4)
        cid[2] = -1
        with pytest.raises(ValueError, match="counter id"):
            _cstep.class_changes(cid, access, roles, 4)

    def test_class_changes_rejects_out_of_range_stream(self):
        cid = np.zeros(4, dtype=np.int32)
        access = np.array([0, 1, 0, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="stream id"):
            _cstep.class_changes(cid, access, np.zeros(1, dtype=np.int8), 1)

    def test_wrong_dtype_or_layout_raises(self):
        cid, pc, taken, miss = self.group_args()
        with pytest.raises(ValueError, match="int64"):
            _cstep.substream_group(cid.astype(np.int32), pc, taken, miss, 4, 1)
        with pytest.raises(ValueError, match="contiguous"):
            _cstep.substream_group(
                np.zeros(12, dtype=np.int64)[::2], pc, taken, miss, 4, 1
            )
        with pytest.raises(ValueError, match="int64 or uint64"):
            _cstep.pc_codes(np.zeros(4, dtype=np.int32))

    def test_unequal_lengths_raise(self):
        cid, pc, taken, miss = self.group_args()
        with pytest.raises(ValueError, match="lengths differ"):
            _cstep.substream_group(cid, pc[:-1], taken, miss, 4, 1)
        with pytest.raises(ValueError, match="lengths differ"):
            _cstep.class_changes(
                np.zeros(3, dtype=np.int32),
                np.zeros(4, dtype=np.int64),
                np.zeros(1, dtype=np.int8),
                1,
            )

    # -- predictor drivers --------------------------------------------------

    @staticmethod
    def lane_call(name, n=8):
        """``(driver, args, stream_index)`` of one valid predictor-driver
        call: ``args[0]`` is a per-branch stream and ``args[stream_index]``
        another one that must match its length."""
        out = np.ones(n, dtype=np.uint8)
        pcs = np.arange(n, dtype=np.int64)

        def i8(size):
            return np.full(size, 2, dtype=np.int8)

        def i64(*values):
            return np.array(values, dtype=np.int64)

        calls = {
            "bimode_pair": (
                [np.zeros(n, np.int32), np.zeros(n, np.int32), out,
                 i8(4), i8(4), i8(4), False],
                2,
            ),
            "gshare_detailed": ([np.zeros(n, np.int32), out, i8(4)], 1),
            "gshare_fused": ([pcs, out, i64(3), i64(3), i64(0), i8(4)], 1),
            "bimode_fused": (
                [pcs, out, i64(3), i64(3), i64(3), i64(0),
                 np.zeros(1, np.uint8), i64(0), i64(4), i64(8), i8(12)],
                1,
            ),
            "counter_lane": (
                [np.zeros(n, np.int64), np.ones(n, np.int8), i8(4)], 1
            ),
            "gskew_lane": (
                [pcs, out, 2, 2, True, np.full((3, 4), 2, dtype=np.int8)], 1
            ),
            "trimode_lane": (
                [np.zeros(n, np.int64), np.zeros(n, np.int64), out,
                 i8(4), i8(4), i8(4), i8(4)],
                2,
            ),
            "yags_lane": (
                [np.zeros(n, np.int64), np.zeros(n, np.int64),
                 np.zeros(n, np.int32), out, i8(4),
                 np.zeros(4, np.int32), i8(4), np.zeros(4, np.int32), i8(4)],
                3,
            ),
            "perceptron_lane": (
                [pcs, out, 2, 3, 19, -8, 7, np.zeros(16, np.int32)], 1
            ),
            "biasfilter_lane": (
                [pcs, out, 2, 3, 2, 2, np.zeros(4, np.uint8),
                 np.zeros(4, np.int8), i8(4)],
                1,
            ),
        }
        args, stream_index = calls[name]
        return getattr(_cstep, name), args, stream_index

    LANE_DRIVERS = (
        "bimode_pair",
        "gshare_detailed",
        "gshare_fused",
        "bimode_fused",
        "counter_lane",
        "gskew_lane",
        "trimode_lane",
        "yags_lane",
        "perceptron_lane",
        "biasfilter_lane",
    )

    @pytest.mark.parametrize("name", LANE_DRIVERS)
    def test_lane_driver_accepts_valid_call(self, name):
        driver, args, _ = self.lane_call(name)
        driver(*args)

    @pytest.mark.parametrize("name", LANE_DRIVERS)
    def test_lane_driver_rejects_wrong_dtype(self, name):
        driver, args, _ = self.lane_call(name)
        args[0] = args[0].astype(np.float64)
        with pytest.raises(ValueError, match="expected a C-contiguous"):
            driver(*args)

    @pytest.mark.parametrize("name", LANE_DRIVERS)
    def test_lane_driver_rejects_non_contiguous(self, name):
        driver, args, _ = self.lane_call(name)
        args[0] = np.repeat(args[0], 2)[::2]
        with pytest.raises(ValueError, match="contiguous=False"):
            driver(*args)

    @pytest.mark.parametrize("name", LANE_DRIVERS)
    def test_lane_driver_rejects_unequal_lengths(self, name):
        driver, args, stream_index = self.lane_call(name)
        args[stream_index] = args[stream_index][:-1]
        with pytest.raises(ValueError, match="lengths differ"):
            driver(*args)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("gshare_fused", 4, 1),  # base + (imask | hmask) == len(tables)
            ("bimode_fused", 7, 9),  # not-taken bank overlaps the end
            ("bimode_fused", 8, 9),  # taken bank overlaps the end
            ("bimode_fused", 9, 9),  # choice table overlaps the end
            ("gshare_fused", 4, -1),
            ("bimode_fused", 9, -4),
        ],
    )
    def test_fused_rejects_out_of_arena_base(self, name, index, value):
        driver, args, _ = self.lane_call(name)
        args[index] = np.array([value], dtype=np.int64)
        with pytest.raises(ValueError, match="arena"):
            driver(*args)

    @pytest.mark.parametrize(
        "name, index",
        [("gshare_fused", 2), ("gshare_fused", 3)]
        + [("bimode_fused", index) for index in (2, 3, 4, 5)],
    )
    def test_fused_rejects_negative_mask(self, name, index):
        driver, args, _ = self.lane_call(name)
        args[index] = np.array([-1], dtype=np.int64)
        with pytest.raises(ValueError, match=">= 0"):
            driver(*args)

    def test_lane_tables_must_match_their_parameters(self):
        driver, args, _ = self.lane_call("gskew_lane")
        args[5] = np.full((3, 8), 2, dtype=np.int8)
        with pytest.raises(ValueError, match="shape"):
            driver(*args)
        driver, args, _ = self.lane_call("perceptron_lane")
        args[7] = np.zeros(12, np.int32)
        with pytest.raises(ValueError, match="lengths differ"):
            driver(*args)
        args[3], args[7] = -1, np.zeros(0, np.int32)  # zero-width rows
        with pytest.raises(ValueError, match="hist_bits"):
            driver(*args)
        driver, args, _ = self.lane_call("biasfilter_lane")
        args[5] = 3  # history reach wider than the 4-entry sub-table
        with pytest.raises(ValueError, match="reach"):
            driver(*args)
