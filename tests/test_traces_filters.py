"""Unit tests for trace interleaving."""

import numpy as np
import pytest

from repro.traces.filters import interleave
from repro.traces.record import BranchTrace


def build(pcs, outcomes=None, name="t"):
    pcs = np.array(pcs)
    if outcomes is None:
        outcomes = np.ones(len(pcs), dtype=bool)
    return BranchTrace(pcs=pcs, outcomes=np.array(outcomes), name=name)


class TestInterleave:
    def test_alternates_chunks(self):
        a = build([1, 2, 3, 4])
        b = build([10, 20, 30, 40])
        t = interleave(a, b, period=2)
        assert t.pcs.tolist() == [1, 2, 10, 20, 3, 4, 30, 40]

    def test_uneven_lengths(self):
        a = build([1, 2, 3])
        b = build([10])
        t = interleave(a, b, period=2)
        assert sorted(t.pcs.tolist()) == [1, 2, 3, 10]
        assert len(t) == 4

    def test_empty_inputs(self):
        t = interleave(BranchTrace.empty(), BranchTrace.empty(), period=3)
        assert len(t) == 0

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            interleave(build([1]), build([2]), period=0)
