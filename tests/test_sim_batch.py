"""Equivalence tests for the batched multi-lane gshare kernel.

The scalar step interface (:func:`repro.sim.engine.run_steps`) is the
semantic reference; every lane the batch kernel produces must match it
bit-for-bit — predictions and rates — including degenerate histories
and traces.  Rates come from the closed-form counter-major
:func:`gshare_rate` (the no-compiler rate path), predictions from the
registry's attribution (:func:`gshare_detailed` when compiled).
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import faults
from repro.core import grouping
from repro.core.counters import WEAKLY_TAKEN
from repro.core.grouping import stable_group, stable_group_order
from repro.sim import _cstep, batch
from repro.predictors.gshare import GSharePredictor
from repro.sim.batch import GShareLane, gshare_lane_of, gshare_rate
from repro.sim.engine import run_steps
from repro.sim.kernels import family_detailed, kernel_for_spec
from repro.traces.record import BranchTrace
from repro.verify.oracle import oracle_rate
from tests.conftest import make_toy_trace, make_trace


def lane_predictions(lanes, trace):
    """Each lane's predictions through the registry's gshare
    attribution: the compiled Section-4 loop (:func:`gshare_detailed`),
    or without a compiler the scalar ``simulate_detailed`` reference."""
    specs = [f"gshare:index={lane.index_bits},hist={lane.history_bits}" for lane in lanes]
    rows = family_detailed("gshare", specs, lanes, trace)
    return [row.result.predictions for row in rows]


def lane_rates(lanes, trace):
    """Each lane's closed-form counter-major rate."""
    hist_cache = {}
    return [gshare_rate(lane, trace, hist_cache) for lane in lanes]


def reference(lane: GShareLane, trace: BranchTrace):
    return run_steps(
        GSharePredictor(index_bits=lane.index_bits, history_bits=lane.history_bits),
        trace,
    )


class TestGShareLane:
    def test_spec_round_trip(self):
        """A spec and the predictor it names read as the same lane."""
        lane = GShareLane(index_bits=10, history_bits=4)
        assert kernel_for_spec("gshare:index=10,hist=4") == ("gshare", lane)
        assert gshare_lane_of(GSharePredictor(10, 4)) == lane

    def test_table_size(self):
        assert GShareLane(index_bits=5, history_bits=0).table_size == 32

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            GShareLane(index_bits=-1, history_bits=0)

    def test_rejects_history_longer_than_index(self):
        with pytest.raises(ValueError):
            GShareLane(index_bits=4, history_bits=5)


class TestLaneForSpec:
    def test_plain_gshare(self):
        assert kernel_for_spec("gshare:index=8,hist=3") == ("gshare", GShareLane(8, 3))

    def test_hist_defaults_to_index(self):
        assert kernel_for_spec("gshare:index=8") == ("gshare", GShareLane(8, 8))

    @pytest.mark.parametrize(
        "spec",
        [
            "bimodal:index=8",
            "bimode:dir=7,hist=7,choice=7",
            "gshare:index=8,hist=3,extra=1",
            "gshare:hist=3",
            "gshare:index=4,hist=9",
            "gshare:index=x",
            "not a spec",
        ],
    )
    def test_rejects_non_batchable(self, spec):
        assert kernel_for_spec(spec)[0] != "gshare"


class TestPredictionEquivalence:
    def test_every_lane_matches_run_steps(self, toy_trace):
        """All (index_bits, history_bits) lanes up to index 6, in one
        batch, against the scalar reference."""
        lanes = [
            GShareLane(index_bits=i, history_bits=h)
            for i in range(7)
            for h in range(i + 1)
        ]
        batch = lane_predictions(lanes, toy_trace)
        rates = lane_rates(lanes, toy_trace)
        for k, lane in enumerate(lanes):
            ref = reference(lane, toy_trace)
            np.testing.assert_array_equal(batch[k], ref.predictions, err_msg=str(lane))
            assert rates[k] == ref.misprediction_rate, lane

    def test_workload_trace(self, small_workload):
        lanes = [GShareLane(10, h) for h in (0, 3, 7, 10)]
        batch = lane_predictions(lanes, small_workload)
        rates = lane_rates(lanes, small_workload)
        for k, lane in enumerate(lanes):
            ref = reference(lane, small_workload)
            np.testing.assert_array_equal(batch[k], ref.predictions, err_msg=str(lane))
            assert rates[k] == ref.misprediction_rate, lane

    def test_zero_history(self, toy_trace):
        """history_bits=0 degenerates to per-PC bimodal."""
        lane = GShareLane(index_bits=6, history_bits=0)
        np.testing.assert_array_equal(
            lane_predictions([lane], toy_trace)[0],
            reference(lane, toy_trace).predictions,
        )

    def test_single_counter(self):
        """index_bits=0: every branch hammers one counter."""
        trace = make_trace([4, 8, 12, 4] * 50, [True, False, False, True] * 50)
        lane = GShareLane(index_bits=0, history_bits=0)
        ref = reference(lane, trace)
        np.testing.assert_array_equal(
            lane_predictions([lane], trace)[0], ref.predictions
        )
        assert lane_rates([lane], trace) == [ref.misprediction_rate]

    @pytest.mark.parametrize(
        "outcomes",
        [
            [True] * 64,
            [False] * 64,
            [True, False] * 32,
            [True] * 32 + [False] * 32,
        ],
        ids=["all-taken", "all-not-taken", "alternating", "flip-once"],
    )
    def test_adversarial_outcome_patterns(self, outcomes):
        trace = make_trace([64 + 4 * (i % 3) for i in range(64)], outcomes)
        lanes = [GShareLane(2, 0), GShareLane(2, 2), GShareLane(4, 1)]
        batch = lane_predictions(lanes, trace)
        rates = lane_rates(lanes, trace)
        for k, lane in enumerate(lanes):
            ref = reference(lane, trace)
            np.testing.assert_array_equal(batch[k], ref.predictions, err_msg=str(lane))
            assert rates[k] == ref.misprediction_rate, lane


class TestEdgeCases:
    def test_empty_trace(self):
        trace = make_trace([], [])
        lanes = [GShareLane(4, 2)]
        assert [len(p) for p in lane_predictions(lanes, trace)] == [0]
        assert lane_rates(lanes, trace) == [0.0]

    def test_length_one(self):
        trace = make_trace([64], [False])
        lane = GShareLane(4, 2)
        ref = reference(lane, trace)
        np.testing.assert_array_equal(
            lane_predictions([lane], trace)[0], ref.predictions
        )
        assert lane_rates([lane], trace) == [ref.misprediction_rate]

    def test_length_two(self):
        trace = make_trace([64, 64], [False, True])
        lane = GShareLane(3, 3)
        ref = reference(lane, trace)
        np.testing.assert_array_equal(
            lane_predictions([lane], trace)[0], ref.predictions
        )
        assert lane_rates([lane], trace) == [ref.misprediction_rate]

    def test_no_lanes(self, toy_trace):
        assert lane_predictions([], toy_trace) == []
        assert lane_rates([], toy_trace) == []

    def test_rates_match_predictions(self):
        """The closed-form rate path agrees with counting mispredictions
        from the materialized prediction path."""
        trace = make_toy_trace(length=3000, seed=11)
        lanes = [GShareLane(i, h) for i in (3, 5, 8) for h in (0, i // 2, i)]
        preds = lane_predictions(lanes, trace)
        rates = lane_rates(lanes, trace)
        for k in range(len(lanes)):
            expected = int((preds[k] != trace.outcomes).sum()) / len(trace)
            assert rates[k] == expected


def sat2(state, taken):
    """One 2-bit saturating counter update, written out directly."""
    return min(state + 1, 3) if taken else max(state - 1, 0)


def unpack(f):
    """The four next states of a packed counter map."""
    return [(f >> (2 * s)) & 3 for s in range(4)]


class TestCounterMapScan:
    """The packed 4-state maps behind :func:`gshare_rate`: a byte holds
    a map's four 2-bit next states, a run of ``r`` equal outcomes is
    the ``r``-fold counter update, and two maps compose by one lookup."""

    def test_composition_table_applies_first_then_second(self):
        maps = [unpack(f) for f in range(256)]
        want = np.array(
            [
                sum(maps[g][maps[f][s]] << (2 * s) for s in range(4))
                for f in range(256)
                for g in range(256)
            ],
            dtype=np.uint8,
        )
        assert batch._COMPOSE.dtype == np.uint8
        assert np.array_equal(batch._COMPOSE, want)

    @pytest.mark.parametrize("taken", [False, True])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_run_map_is_r_fold_update(self, taken, r):
        """A run's map is ``r`` updates of every state, and a counter's
        first run is pinned to the state ``r`` updates leave
        ``WEAKLY_TAKEN`` in."""
        code = (taken << 2) | min(r, 3)
        want = []
        for s in range(4):
            for _ in range(r):
                s = sat2(s, taken)
            want.append(s)
        assert unpack(batch._RUN_MAP[code]) == want
        assert unpack(batch._RUN_MAP[8 | code]) == [want[WEAKLY_TAKEN]] * 4

    @pytest.mark.parametrize("taken", [False, True])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_run_misses_are_capped_closed_form(self, taken, r):
        """``min(r, cap)`` counts the run's mispredictions from each
        start state (a first run's from ``WEAKLY_TAKEN``)."""
        code = taken << 2
        for s0 in range(4):
            s, misses = s0, 0
            for _ in range(r):
                misses += (s >= 2) != taken
                s = sat2(s, taken)
            assert min(r, batch._MISS_CAP[code | s0]) == misses, s0
            first = min(r, batch._MISS_CAP[8 | code | s0])
            assert first == min(r, batch._MISS_CAP[code | WEAKLY_TAKEN])

    def test_only_constant_maps_are_closed(self):
        constant = {f for f in range(256) if len(set(unpack(f))) == 1}
        assert constant == {0x00, 0x55, 0xAA, 0xFF}
        assert set(np.flatnonzero(~batch._OPEN)) == constant

    @pytest.mark.parametrize("k", range(1, 13))
    def test_scan_depth_boundaries(self, k):
        """One counter (``index=0``) on alternating outcomes: runs of one
        never saturate, so every composition chain reaches the counter's
        first run, over 2^k - 1, 2^k and 2^k + 1 runs."""
        lane = GShareLane(index_bits=0, history_bits=0)
        for runs in (2**k - 1, 2**k, 2**k + 1):
            for lead in (True, False):
                outcomes = [(i % 2 == 0) == lead for i in range(runs)]
                trace = make_trace([4 * (i % 5) for i in range(runs)], outcomes)
                want = oracle_rate("gshare:index=0,hist=0", trace)
                assert gshare_rate(lane, trace) == want, (runs, lead)


class TestStableGroupOrder:
    """Keys outside ``[0, num_buckets)`` raise instead of reaching
    scipy's unchecked counting sort (where a negative key silently broke
    the permutation and a large one crashed the interpreter)."""

    def test_valid_keys_match_stable_argsort(self):
        keys = np.array([2, 0, 1, 0, 2, 2, 1], dtype=np.int64)
        order = stable_group_order(keys, 3)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert len(stable_group_order(np.empty(0, dtype=np.int64), 0)) == 0

    def test_no_compiler_matches_stable_argsort(self):
        keys = np.random.default_rng(3).integers(0, 37, size=5_000)
        with faults.deny_compiler():
            order = stable_group_order(keys, 37)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @pytest.mark.skipif(not _cstep.available(), reason="no C compiler")
    def test_compiled_rates_sweep_never_imports_scipy(self, tmp_path):
        """scipy loads on the first grouping call, not with ``repro``,
        and the compiled rates sweep never groups through it."""
        script = textwrap.dedent(
            """
            import sys
            import repro
            from repro.analysis.sweep import paper_sweep
            from repro.workloads.generator import generate_trace
            from repro.workloads.profiles import get_profile

            trace = generate_trace(get_profile("gcc"), length=20_000, seed=0)
            paper_sweep({"gcc": trace}, kb_points=(0.25, 1.0), jobs=1)
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
            """
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(sys.path),
            "REPRO_CACHE_DIR": str(tmp_path),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_stable_group_matches_gathered_values(self, monkeypatch):
        """The grouped values are the values gathered in group order,
        through scipy's kernel and through the numpy fallback."""
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 37, size=5_000)
        values = rng.integers(0, 2**31 - 1, size=5_000).astype(np.int32)
        want = values[np.argsort(keys, kind="stable")]
        assert np.array_equal(stable_group(keys, 37, values), want)
        monkeypatch.setattr(grouping, "_coo_tocsr", lambda: None)
        assert np.array_equal(stable_group(keys, 37, values), want)
        order = stable_group_order(keys, 37)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        with pytest.raises(ValueError, match="group keys"):
            stable_group(np.array([0, 3]), 3, np.array([1, 2], dtype=np.int32))

    @pytest.mark.parametrize(
        "keys, num_buckets",
        [
            ([0, -5, 1], 2),  # negative
            ([0, 1_000_000, 1], 2),  # past the buckets
            ([0, 2, 1], 2),  # exactly num_buckets
            ([0, 2**32 + 1, 1], 4),  # wraps to 1 on the int32 cast
            ([0, -(2**32) + 1, 1], 4),  # wraps to 1 from below
        ],
    )
    def test_out_of_range_keys_raise(self, keys, num_buckets):
        with pytest.raises(ValueError, match="group keys"):
            stable_group_order(np.array(keys, dtype=np.int64), num_buckets)
