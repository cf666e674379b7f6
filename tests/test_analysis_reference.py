"""Equivalence suite for the optimized Section-4 analysis pipeline.

The compiled drivers (``repro.sim._cstep``) group accesses into
substreams with one first-seen hash pass and sort only the distinct
(counter, pc) keys; without a compiler the analysis runs the naive
sort-based reference implementations of :mod:`repro.analysis.reference`
itself.  The compiled pass must produce bit-identical results to the
reference — on every predictor family
with a detailed path, and on the inputs the hash grouping is most likely
to get wrong: tables that grow mid-trace, keys wider than 32 bits,
streams first seen in descending order, single accesses and PCs at the
ends of the 64-bit range.  The drivers' preconditions raise
``ValueError`` instead of reading or writing out of bounds.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
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
from repro.core.interfaces import DetailedSimulation, SubstreamGrouping
from repro.core.registry import make_predictor
from repro.sim import _cstep
from repro.sim.engine import run_detailed
from repro.sim.fused import family_detailed, plan_families
from repro.traces.record import BranchTrace
from tests.conftest import make_toy_trace, make_trace
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


def key_order(analysis):
    """Stream ids in ascending (counter, pc) key order."""
    return np.lexsort((analysis.stream_pc, analysis.stream_counter))


def renumbered(analysis):
    """Every access's stream id after renumbering the streams by key."""
    order = key_order(analysis)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[analysis.access_stream]


STREAM_FIELDS = (
    "stream_counter",
    "stream_pc",
    "stream_total",
    "stream_taken",
    "stream_mispredicted",
    "stream_class",
)


def assert_analysis_equal(a, b):
    """``a`` and ``b`` are one analysis whatever their producers'
    stream numbering: every per-stream array is equal once both sides
    are renumbered by (counter, pc) key, so are the renumbered access
    ids, and every access carries the same key."""
    order_a, order_b = key_order(a), key_order(b)
    for name in STREAM_FIELDS:
        assert np.array_equal(getattr(a, name)[order_a], getattr(b, name)[order_b]), name
    assert np.array_equal(renumbered(a), renumbered(b))
    for name in ("stream_counter", "stream_pc"):
        assert np.array_equal(
            getattr(a, name)[a.access_stream], getattr(b, name)[b.access_stream]
        ), name
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

    def test_numpy_fallback_identical(self, trace):
        """With the compiler vetoed, ``summarize_detailed`` runs the
        sort-based reference: its payload is byte-identical to
        ``summarize_detailed_reference`` and equal to the compiled one."""
        for spec in DETAILED_SPECS:
            detailed = run_detailed(make_predictor(spec), trace)
            with_cc = summarize_detailed(detailed, include_bias_table=True)
            with faults.deny_compiler():
                without_cc = summarize_detailed(detailed, include_bias_table=True)
                want = summarize_detailed_reference(detailed, include_bias_table=True)
            assert json.dumps(without_cc) == json.dumps(want), spec
            assert without_cc == with_cc, spec

    def test_kernel_modes_identical(self, trace):
        """Scalar and batch detailed kernels feed the same analysis."""
        spec = "bimode:dir=7,hist=7,choice=6"
        scalar = summarize_detailed(make_predictor(spec).simulate_detailed(trace))
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
    """Compiled, no-compiler and reference analyses are identical,
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
        assert analysis.stream_counter[key_order(analysis)][-1] == num_counters - 1

    def test_streams_first_seen_in_descending_order(self, monkeypatch):
        # first-seen ids run opposite to the (counter, pc) order: the
        # compiled grouping keeps them, the no-compiler reference ascends
        # by key
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
        assert renumbered(analysis)[0] == len(pairs) - 1
        assert renumbered(analysis)[len(pairs) - 1] == 0
        if _cstep.available():
            assert analysis.access_stream[: len(pairs)].tolist() == list(range(len(pairs)))

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


def first_seen_grouping(detailed):
    """The substream grouping a compiled loop would emit for
    ``detailed``, built in numpy: stream ids count up in first-seen
    order."""
    unique_pcs, pc_dense = np.unique(detailed.pcs, return_inverse=True)
    keys = detailed.counter_ids.astype(np.int64) * len(unique_pcs) + pc_dense
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    access_stream = rank[inverse.ravel()].astype(np.int32)
    records = np.zeros(len(seen), dtype=_cstep._STREAM_RECORD)
    records["key"] = distinct[seen]
    records["total"] = np.bincount(access_stream, minlength=len(seen))
    for field, flags in (
        ("taken", detailed.result.outcomes),
        ("miss", detailed.result.mispredicted),
    ):
        records[field] = np.bincount(access_stream[flags], minlength=len(seen))
    return SubstreamGrouping(access_stream, records, unique_pcs, detailed.num_counters)


class TestFirstSeenSummaries:
    """The analysis keeps a grouping's own first-seen stream ids (no
    key sort, no renumbering), and its summary is the sorted
    reference's payload."""

    def descending_detailed(self, seed):
        # streams first seen in descending (counter, pc) order
        pairs = [(c, p) for c in range(5, -1, -1) for p in range(4, -1, -1)]
        rng = np.random.default_rng(seed)
        order = list(range(len(pairs))) + rng.integers(0, len(pairs), 500).tolist()
        return detailed_from(
            pcs=[0x400 + 4 * pairs[i][1] for i in order],
            counter_ids=[pairs[i][0] for i in order],
            outcomes=rng.random(len(order)) < rng.random(len(order)),
            mispredicted=rng.random(len(order)) < 0.3,
            num_counters=7,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouping_summary_equals_sorted_without_key_sort(self, seed, monkeypatch):
        detailed = self.descending_detailed(seed)
        grouping = first_seen_grouping(detailed)
        assert np.array_equal(grouping.counter_ids, detailed.counter_ids)
        keys = grouping.streams["key"].astype(np.int64)
        assert (np.diff(keys) < 0).all()  # the order really differs
        analysis = analyze_substreams(grouping)
        assert np.array_equal(analysis.access_stream, grouping.access_stream)
        assert_analysis_equal(analysis, analyze_substreams_reference(detailed))
        want = summarize_detailed_reference(detailed, include_bias_table=True)
        for compiled in (True, False):
            with monkeypatch.context() as m:
                if not compiled:
                    m.setattr(_cstep, "available", lambda: False)
                got = summarize_detailed(grouping, include_bias_table=True)
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.skipif(not _cstep.available(), reason="compiled driver unavailable")
    @pytest.mark.parametrize(
        "spec", ["gshare:index=8,hist=8", "bimode:dir=7,hist=7,choice=6"]
    )
    def test_sweep_rows_summarize_without_key_sort(self, spec, trace):
        scalar = make_predictor(spec).simulate_detailed(trace)
        want = summarize_detailed_reference(scalar, include_bias_table=True)
        pc_codes = pc_code_stream(trace.pcs)
        (family,) = plan_families([spec])
        row = family_detailed(family, trace, pc_codes=pc_codes)[spec]
        assert isinstance(row, SubstreamGrouping)
        analysis = analyze_substreams(row, pc_codes=pc_codes)
        assert np.array_equal(analysis.access_stream, row.access_stream)
        for detailed in (row, scalar):
            got = summarize_detailed(detailed, include_bias_table=True, pc_codes=pc_codes)
            assert got == want


def _section4_specs():
    """Every ``section4`` benchmark spec plus the two bi-mode ablations
    the streaming loop also serves."""
    from perfbench.workloads import section4_grid

    return section4_grid() + [
        "bimode:dir=7,hist=7,choice=6,full_update=1",
        "bimode:dir=7,hist=5,choice=6,choice_hist=1",
    ]


def _streaming_trace(kind):
    rng = np.random.default_rng(17)
    if kind == "toy":
        return make_toy_trace(length=3000, seed=5)
    if kind == "empty":
        return BranchTrace.empty("none")
    if kind == "one-branch":
        return make_trace([0x40], [True])
    if kind == "single-pc":
        return make_trace([0x400] * 600, rng.random(600) < 0.7)
    if kind == "wide-pcs":  # PCs at and above 2**32
        pcs = rng.choice([2**32, 2**32 + 4, 2**40 + 12, 2**62 - 8, 0x400], 1500)
        return make_trace(pcs, rng.random(1500) < 0.6)
    raise ValueError(kind)


STREAMING_TRACES = ("toy", "empty", "one-branch", "single-pc", "wide-pcs")


def _section4_rows(spec, trace):
    """What a ``detailed_matrix`` worker hands the analysis for one
    cell: the family pass's row under the trace's shared pc codes."""
    pc_codes = pc_code_stream(trace.pcs)
    (family,) = plan_families([spec])
    return family_detailed(family, trace, pc_codes=pc_codes)[spec], pc_codes


class TestStreamingSection4:
    """The streaming gshare/bi-mode loops group substreams as they run;
    on every ``section4`` spec the grouped analysis must equal the
    sort-based reference and the ``REPRO_NO_CC`` fallback field by
    field, on ordinary and edge-case traces."""

    @pytest.mark.parametrize("kind", STREAMING_TRACES)
    @pytest.mark.parametrize("spec", _section4_specs())
    def test_streamed_analysis_matches_reference_and_fallback(
        self, spec, kind, monkeypatch
    ):
        trace = _streaming_trace(kind)
        scalar = make_predictor(spec).simulate_detailed(trace)
        reference = analyze_substreams_reference(scalar)
        want_summary = summarize_detailed_reference(scalar, include_bias_table=True)
        want_changes = count_class_changes_reference(scalar, reference)

        def check(row, pc_codes):
            analysis = analyze_substreams(row, pc_codes=pc_codes)
            assert_analysis_equal(analysis, reference)
            for a, b in zip(vars(analysis).values(), vars(reference).values()):
                assert getattr(a, "dtype", None) == getattr(b, "dtype", None)
            assert count_class_changes(row, analysis) == want_changes
            summary = summarize_detailed(
                row, include_bias_table=True, pc_codes=pc_codes
            )
            assert summary == want_summary

        if _cstep.available():
            row, pc_codes = _section4_rows(spec, trace)
            assert isinstance(row, SubstreamGrouping)
            assert row.num_counters == scalar.num_counters
            assert np.array_equal(row.counter_ids, scalar.counter_ids)
            check(row, pc_codes)
        monkeypatch.setattr(_cstep, "available", lambda: False)
        row, pc_codes = _section4_rows(spec, trace)
        assert isinstance(row, DetailedSimulation)
        check(row, pc_codes)

    @pytest.mark.parametrize("kind", STREAMING_TRACES)
    @pytest.mark.parametrize("spec", _section4_specs())
    def test_run_detailed_matches_scalar(self, spec, kind):
        trace = _streaming_trace(kind)
        got = run_detailed(make_predictor(spec), trace)
        want = make_predictor(spec).simulate_detailed(trace)
        assert np.array_equal(got.result.predictions, want.result.predictions)
        assert np.array_equal(got.counter_ids, want.counter_ids)
        assert got.counter_ids.dtype == want.counter_ids.dtype
        assert got.num_counters == want.num_counters


needs_cc = pytest.mark.skipif(
    not _cstep.available(), reason="compiled driver unavailable"
)


@needs_cc
class TestDriverPreconditions:
    """Bad inputs raise ValueError instead of reaching the C loops."""

    def group_args(self, n=6):
        """Valid ``substream_group`` arguments: ``n`` accesses of one pc
        on counter 0 of 4."""
        return (
            np.zeros(n, dtype=np.int64),
            (np.array([0x40], dtype=np.int64), np.zeros(n, dtype=np.int32)),
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )

    def test_substream_group_rejects_out_of_range_counter(self):
        cid, pc, taken, miss = self.group_args()
        for bad in (4, -1, 2**40):
            cid[3] = bad
            with pytest.raises(ValueError, match="counter id"):
                _cstep.substream_group(cid, pc, taken, miss, 4)

    def test_substream_group_rejects_out_of_range_pc_code(self):
        cid, pc, taken, miss = self.group_args()
        for bad in (1, -1):
            pc[1][2] = bad
            with pytest.raises(ValueError, match="pc code"):
                _cstep.substream_group(cid, pc, taken, miss, 4)

    def test_class_changes_rejects_out_of_range_counter(self):
        access = np.array([0, 1, 2, 1], dtype=np.int32)
        counters = np.array([0, 1, 4], dtype=np.int64)
        roles = np.zeros(3, dtype=np.int8)
        with pytest.raises(ValueError, match="counter id"):
            _cstep.class_changes(access, counters, roles, 4)
        counters[2] = -1
        with pytest.raises(ValueError, match="counter id"):
            _cstep.class_changes(access, counters, roles, 4)

    def test_class_changes_rejects_out_of_range_stream(self):
        counters = np.zeros(1, dtype=np.int64)
        roles = np.zeros(1, dtype=np.int8)
        for bad in (1, -1):
            access = np.array([0, bad, 0, 0], dtype=np.int32)
            with pytest.raises(ValueError, match="stream id"):
                _cstep.class_changes(access, counters, roles, 1)

    def test_wrong_dtype_or_layout_raises(self):
        cid, pc, taken, miss = self.group_args()
        with pytest.raises(ValueError, match="int64"):
            _cstep.substream_group(cid.astype(np.int32), pc, taken, miss, 4)
        with pytest.raises(ValueError, match="contiguous"):
            _cstep.substream_group(
                np.zeros(12, dtype=np.int64)[::2], pc, taken, miss, 4
            )
        with pytest.raises(ValueError, match="int64 or uint64"):
            _cstep.pc_codes(np.zeros(4, dtype=np.int32))

    def test_unequal_lengths_raise(self):
        cid, pc, taken, miss = self.group_args()
        with pytest.raises(ValueError, match="lengths differ"):
            _cstep.substream_group(cid, (pc[0], pc[1][:-1]), taken, miss, 4)
        with pytest.raises(ValueError, match="lengths differ"):
            _cstep.class_changes(
                np.zeros(3, dtype=np.int32),
                np.zeros(2, dtype=np.int64),
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

        codes = (np.array([0x40], np.int64), np.zeros(n, np.int32))
        calls = {
            "bimode_pair": (
                [pcs, out, 3, 3, 3, 0, False, i8(4), i8(4), i8(4), codes],
                1,
            ),
            "gshare_detailed": ([pcs, out, 3, 3, i8(4), codes], 1),
            "gshare_fused": ([pcs, out, i64(3), i64(3), i64(0), i8(4)], 1),
            "bimode_fused": (
                [pcs, out, i64(3), i64(3), i64(3), i64(0),
                 np.zeros(1, np.uint8), i64(0), i64(4), i64(8), i8(12)],
                1,
            ),
            "counter_lane": (
                [np.zeros(n, np.int64), np.ones(n, np.int8), i8(4)], 1
            ),
            "agree_lane": ([pcs, out, 3, 3, 3, i8(4), np.full(4, 2, np.uint8)], 1),
            "tournament_lane": ([pcs, out, 3, 3, i8(4), i8(4), i8(4)], 1),
            "gskew_lane": (
                [pcs, out, 2, 2, True, np.full((3, 4), 2, dtype=np.int8)], 1
            ),
            "trimode_lane": ([pcs, out, 3, 3, 3, i8(4), i8(4), i8(4), i8(4)], 1),
            "yags_lane": (
                [pcs, out, 3, 3, 3, 2, 63, i8(4), np.full(4, -1, np.int32), i8(4),
                 np.full(4, -1, np.int32), i8(4)],
                1,
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
        "agree_lane",
        "tournament_lane",
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

    @pytest.mark.parametrize("bad", [-1, 4, -(2**40), 2**40])
    def test_counter_lane_rejects_out_of_range_key(self, bad):
        """The shared counter loop indexes its table by key unchecked:
        a key outside ``[0, len(table))``, at either end, raises before
        the loop runs instead of reading and writing past the table."""
        driver, args, _ = self.lane_call("counter_lane")
        args[0][5] = bad
        with pytest.raises(ValueError, match="counter keys must lie in"):
            driver(*args)
        assert (args[2] == 2).all()  # the table was not touched

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

    #: The per-access comparator loops: each returns its miss count and
    #: fills optional predictions; all but the perceptron also counter ids.
    COMPARATORS = (
        "agree_lane",
        "tournament_lane",
        "gskew_lane",
        "trimode_lane",
        "yags_lane",
        "perceptron_lane",
        "biasfilter_lane",
    )

    @pytest.mark.parametrize("name", COMPARATORS)
    def test_comparator_counts_its_misses(self, name):
        driver, args, _ = self.lane_call(name)
        miss = driver(*args)
        driver, args, _ = self.lane_call(name)
        preds = np.empty(8, dtype=np.uint8)
        assert driver(*args, preds) == miss == np.count_nonzero(preds != args[1])

    @pytest.mark.parametrize("name", COMPARATORS)
    def test_comparator_checks_its_outputs(self, name):
        bad_preds = (
            (np.empty(7, np.uint8), "lengths differ"),
            (np.empty(8, np.int8), "uint8"),
            (np.empty(16, np.uint8)[::2], "contiguous=False"),
        )
        for bad, message in bad_preds:
            driver, args, _ = self.lane_call(name)
            with pytest.raises(ValueError, match=message):
                driver(*args, bad)
        if name == "perceptron_lane":
            return  # no counter ids: the perceptron's rows are a pure pc hash
        for bad, message in ((np.empty(7, np.int64), "lengths differ"),
                             (np.empty(8, np.int32), "int64")):
            driver, args, _ = self.lane_call(name)
            with pytest.raises(ValueError, match=message):
                driver(*args, None, bad)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("agree_lane", 2, 4),  # PHT PC mask past the 4-entry PHT
            ("agree_lane", 3, 7),  # PHT history mask past it
            ("agree_lane", 4, 4),  # bias mask past the biasing bits
            ("tournament_lane", 2, 4),  # component mask past the tables
            ("tournament_lane", 3, 4),  # meta mask past the meta table
            ("trimode_lane", 2, 4),  # direction PC mask past the banks
            ("trimode_lane", 3, 7),  # direction history mask past them
            ("trimode_lane", 4, 4),  # choice mask past the choice table
            ("yags_lane", 2, 4),  # choice mask past the choice table
            ("yags_lane", 3, 4),  # cache PC mask past the caches
            ("yags_lane", 4, 7),  # cache history mask past them
        ],
    )
    def test_comparator_rejects_table_reach(self, name, index, value):
        driver, args, _ = self.lane_call(name)
        args[index] = value
        with pytest.raises(ValueError, match="reaches past"):
            driver(*args)
        args[index] = -1
        with pytest.raises(ValueError, match=">= 0"):
            driver(*args)

    def test_yags_tags_fit_int32(self):
        """Tags are int32 with -1 marking an empty entry: at most 30
        bits, and a shift C can perform."""
        for shift, tag_mask in ((2, 1 << 30), (2, -1), (64, 63), (-1, 63)):
            driver, args, _ = self.lane_call("yags_lane")
            args[5], args[6] = shift, tag_mask
            with pytest.raises(ValueError, match="30 bits"):
                driver(*args)
        args[5], args[6] = 33, (1 << 30) - 1
        driver(*args)

    def test_lane_tables_must_match_their_parameters(self):
        driver, args, _ = self.lane_call("gskew_lane")
        args[5] = np.full((3, 8), 2, dtype=np.int8)
        with pytest.raises(ValueError, match="shape"):
            driver(*args)
        for hist_bits in (-1, 64):
            driver, args, _ = self.lane_call("gskew_lane")
            args[3] = hist_bits
            with pytest.raises(ValueError, match="hist_bits"):
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
        for name, index in (("tournament_lane", 5), ("trimode_lane", 7)):
            driver, args, _ = self.lane_call(name)
            args[index] = np.full(8, 2, dtype=np.int8)  # tables of unequal size
            with pytest.raises(ValueError, match="lengths differ"):
                driver(*args)

    # -- Section-4 detailed loops and the grouping passes --------------------

    GROUPED = ("gshare_detailed", "bimode_pair")
    #: index of the pc codes argument of each grouped loop's valid call
    CODES = {"gshare_detailed": 5, "bimode_pair": 10}

    @pytest.mark.parametrize("name", GROUPED)
    def test_grouped_loop_returns_streams(self, name):
        driver, args, _ = self.lane_call(name)
        preds, grouping = driver(*args)
        assert preds.shape == (8,) and grouping.access_stream.dtype == np.int32
        assert grouping.streams["total"].sum() == 8
        # streams alone
        preds, grouping = driver(*args, predictions=False)
        assert preds is None and grouping is not None

    @pytest.mark.parametrize("name", GROUPED)
    def test_grouped_loop_rejects_bad_pc_codes(self, name):
        index = self.CODES[name]
        for bad in (1, -1):
            driver, args, _ = self.lane_call(name)
            args[index][1][3] = bad
            with pytest.raises(ValueError, match="pc code"):
                driver(*args)
        driver, args, _ = self.lane_call(name)
        unique_pcs, codes = args[index]
        for bad_codes, message in (
            (codes[:-1], "lengths differ"),
            (codes.astype(np.int64), "int32"),
            (np.repeat(codes, 2)[::2], "contiguous=False"),
        ):
            args[index] = (unique_pcs, bad_codes)
            with pytest.raises(ValueError, match=message):
                driver(*args)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("gshare_detailed", 2, 7),  # PC mask past the 4-entry PHT
            ("gshare_detailed", 3, 4),  # history mask past it
            ("bimode_pair", 2, 4),  # direction PC mask past the banks
            ("bimode_pair", 3, 7),  # direction history mask past them
            ("bimode_pair", 4, 8),  # choice PC mask past the choice table
            ("bimode_pair", 5, 4),  # choice history mask past it
        ],
    )
    def test_grouped_loop_rejects_table_reach(self, name, index, value):
        driver, args, _ = self.lane_call(name)
        args[index] = value
        with pytest.raises(ValueError, match="reaches past"):
            driver(*args)
        args[index] = -1
        with pytest.raises(ValueError, match=">= 0"):
            driver(*args)

    def test_bimode_banks_must_match(self):
        driver, args, _ = self.lane_call("bimode_pair")
        args[8] = np.full(8, 2, dtype=np.int8)  # taken bank != not-taken bank
        with pytest.raises(ValueError, match="lengths differ"):
            driver(*args)

    def test_grouped_passes_reject_ids_past_int32(self, monkeypatch):
        """Stream and pc ids are int32; ``n >= 2**31 - 1`` accesses are
        refused before any id is written (the limit is lowered here so
        the check runs without allocating 2**31 accesses)."""
        monkeypatch.setattr(_cstep, "_ID_LIMIT", 8)
        for name in self.GROUPED:
            driver, args, _ = self.lane_call(name)
            with pytest.raises(ValueError, match="int32 id range"):
                driver(*args)
        cid, pc, taken, miss = self.group_args(n=8)
        with pytest.raises(ValueError, match="int32 id range"):
            _cstep.substream_group(cid, pc, taken, miss, 4)
        with pytest.raises(ValueError, match="int32 id range"):
            _cstep.pc_codes(np.zeros(8, dtype=np.int64))
        cid, pc, taken, miss = self.group_args(n=7)
        _cstep.substream_group(cid, pc, taken, miss, 4)
        # the no-compiler reference path refuses where the compiled pass does
        monkeypatch.setattr(_cstep, "available", lambda: False)
        detailed = detailed_from(
            pcs=[0x400] * 8, counter_ids=[0] * 8, outcomes=[True] * 8,
            mispredicted=[False] * 8, num_counters=4,
        )
        with pytest.raises(ValueError, match="int32 id range"):
            analyze_substreams(detailed)
