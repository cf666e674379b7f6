"""Unit tests for the prediction metrics a :class:`SimulationResult`
carries."""

import numpy as np
import pytest

from repro.core.interfaces import SimulationResult


def result(predictions, outcomes):
    return SimulationResult(
        predictor_name="p",
        trace_name="t",
        predictions=np.array(predictions, dtype=bool),
        outcomes=np.array(outcomes, dtype=bool),
    )


class TestSimulationResult:
    def test_misprediction_rate(self):
        r = result([True, True, False, False], [True, False, False, True])
        assert r.misprediction_rate == 0.5
        assert r.num_mispredictions == 2
        assert r.accuracy == 0.5

    def test_empty(self):
        r = result([], [])
        assert r.misprediction_rate == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            result([True], [True, False])
