"""Unit tests for trace statistics (Table 2 machinery)."""

import numpy as np
import pytest

from repro.traces.record import BranchTrace
from repro.traces.stats import compute_stats, per_branch_bias


def build(pcs, outcomes, name="t"):
    return BranchTrace(pcs=np.array(pcs), outcomes=np.array(outcomes), name=name)


class TestPerBranchBias:
    def test_counts(self):
        t = build([1, 1, 1, 2], [True, True, False, False])
        bias = per_branch_bias(t)
        assert bias[1] == (3, 2)
        assert bias[2] == (1, 0)

    def test_empty(self):
        assert per_branch_bias(BranchTrace.empty()) == {}


class TestComputeStats:
    def test_counts_and_rate(self):
        t = build([1, 2, 1], [True, False, True])
        stats = compute_stats(t)
        assert stats.static_branches == 2
        assert stats.dynamic_branches == 3
        assert stats.taken_rate == pytest.approx(2 / 3)

    def test_strong_bias_classification(self):
        # branch 1: 10/10 taken (ST); branch 2: 0/10 (SNT); branch 3: 5/10 (WB)
        pcs = [1] * 10 + [2] * 10 + [3] * 10
        outcomes = [True] * 10 + [False] * 10 + [True, False] * 5
        stats = compute_stats(build(pcs, outcomes))
        assert stats.strongly_taken_fraction == pytest.approx(1 / 3)
        assert stats.strongly_not_taken_fraction == pytest.approx(1 / 3)
        assert stats.weakly_biased_fraction == pytest.approx(1 / 3)

    def test_threshold_is_inclusive(self):
        # exactly 90% taken is ST by the paper's definition
        pcs = [1] * 10
        outcomes = [True] * 9 + [False]
        stats = compute_stats(build(pcs, outcomes))
        assert stats.strongly_taken_fraction == 1.0

    def test_custom_threshold(self):
        pcs = [1] * 10
        outcomes = [True] * 8 + [False] * 2
        assert compute_stats(build(pcs, outcomes), bias_threshold=0.8).strongly_taken_fraction == 1.0
        assert compute_stats(build(pcs, outcomes), bias_threshold=0.9).strongly_taken_fraction == 0.0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            compute_stats(build([1], [True]), bias_threshold=0.4)

    def test_empty_trace(self):
        stats = compute_stats(BranchTrace.empty("e"))
        assert stats.dynamic_branches == 0
        assert stats.strongly_biased_fraction == 0.0

    def test_name_carried(self):
        assert compute_stats(build([1], [True], name="gcc")).name == "gcc"


class TestOnGeneratedWorkload:
    def test_workload_has_sensible_bias_mix(self, small_workload):
        stats = compute_stats(small_workload)
        # a majority of the dynamic stream should come from strongly
        # biased statics, per [Chang94]'s ~50% observation
        assert 0.3 < stats.strongly_biased_fraction < 0.95
        assert 0.3 < stats.taken_rate < 0.8
