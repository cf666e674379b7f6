"""Unit tests for saturating counters and counter tables."""

import numpy as np
import pytest

from repro.core.counters import (
    STRONGLY_NOT_TAKEN,
    STRONGLY_TAKEN,
    WEAKLY_NOT_TAKEN,
    WEAKLY_TAKEN,
    CounterTable,
)


def counter(bits=2, init=WEAKLY_TAKEN):
    """One saturating counter: a single-entry counter table."""
    return CounterTable(0, bits=bits, init=init)


class TestCounterAutomaton:
    """The up-down automaton of one counter (entry 0 of a one-entry table)."""

    def test_initial_state_weakly_taken_by_default(self):
        assert counter().states[0] == WEAKLY_TAKEN

    def test_prediction_threshold(self):
        assert not counter(init=0).predict(0)
        assert not counter(init=1).predict(0)
        assert counter(init=2).predict(0)
        assert counter(init=3).predict(0)

    def test_taken_increments(self):
        c = counter(init=WEAKLY_TAKEN)
        c.update(0, True)
        assert c.states[0] == STRONGLY_TAKEN

    def test_not_taken_decrements(self):
        c = counter(init=WEAKLY_TAKEN)
        c.update(0, False)
        assert c.states[0] == WEAKLY_NOT_TAKEN

    def test_saturates_high(self):
        c = counter(init=STRONGLY_TAKEN)
        c.update(0, True)
        assert c.states[0] == STRONGLY_TAKEN

    def test_saturates_low(self):
        c = counter(init=STRONGLY_NOT_TAKEN)
        c.update(0, False)
        assert c.states[0] == STRONGLY_NOT_TAKEN

    def test_hysteresis_single_anomaly_does_not_flip_prediction(self):
        # the defining property of 2-bit counters vs 1-bit
        c = counter(init=STRONGLY_TAKEN)
        c.update(0, False)
        assert c.predict(0)  # still taken after one not-taken

    def test_two_anomalies_flip_prediction(self):
        c = counter(init=STRONGLY_TAKEN)
        c.update(0, False)
        c.update(0, False)
        assert not c.predict(0)

    def test_predict_and_update_returns_pre_update_prediction(self):
        c = counter(init=WEAKLY_NOT_TAKEN)
        assert c.predict_and_update(0, True) is False
        assert c.states[0] == WEAKLY_TAKEN

    def test_wider_counter(self):
        c = counter(bits=3, init=4)
        assert c.predict(0)
        for _ in range(10):
            c.update(0, True)
        assert c.states[0] == 7

    def test_three_bit_threshold(self):
        assert not counter(bits=3, init=3).predict(0)
        assert counter(bits=3, init=4).predict(0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            counter(bits=0)

    def test_rejects_out_of_range_init(self):
        with pytest.raises(ValueError):
            counter(init=4)
        with pytest.raises(ValueError):
            counter(init=-1)


class TestCounterTable:
    def test_size(self):
        assert len(CounterTable(6)) == 64

    def test_all_counters_initialized(self):
        t = CounterTable(4, init=WEAKLY_NOT_TAKEN)
        assert t.states == [WEAKLY_NOT_TAKEN] * 16

    def test_predict_update_roundtrip(self):
        t = CounterTable(4)
        assert t.predict(5)
        t.update(5, False)
        t.update(5, False)
        assert not t.predict(5)
        assert t.predict(6)  # neighbours untouched

    def test_predict_and_update_matches_separate_calls(self):
        a = CounterTable(4)
        b = CounterTable(4)
        outcomes = [True, False, False, True, False]
        got = [a.predict_and_update(3, o) for o in outcomes]
        want = []
        for o in outcomes:
            want.append(b.predict(3))
            b.update(3, o)
        assert got == want

    def test_update_saturates(self):
        t = CounterTable(2)
        for _ in range(10):
            t.update(0, True)
        assert t.states[0] == 3
        for _ in range(10):
            t.update(0, False)
        assert t.states[0] == 0

    def test_reset_restores_init(self):
        t = CounterTable(3, init=WEAKLY_TAKEN)
        t.update(0, True)
        t.reset()
        assert t.states == [WEAKLY_TAKEN] * 8

    def test_reset_with_new_init(self):
        t = CounterTable(3)
        t.reset(init=STRONGLY_NOT_TAKEN)
        assert t.states == [0] * 8
        t.update(1, True)
        t.reset()  # remembers the new init
        assert t.states == [0] * 8

    def test_fill(self):
        t = CounterTable(2)
        t.fill([0, 1, 2, 3])
        assert t.states == [0, 1, 2, 3]

    def test_fill_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CounterTable(2).fill([0, 1, 2])

    def test_fill_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CounterTable(2).fill([0, 1, 2, 4])

    def test_as_array(self):
        t = CounterTable(2)
        t.fill([0, 1, 2, 3])
        assert np.array_equal(t.as_array(), np.array([0, 1, 2, 3], dtype=np.uint8))

    def test_as_array_is_a_copy(self):
        t = CounterTable(2)
        arr = t.as_array()
        arr[0] = 3
        assert t.states[0] == WEAKLY_TAKEN

    def test_size_bits(self):
        assert CounterTable(10).size_bits() == 2048
        assert CounterTable(4, bits=3).size_bits() == 48

    def test_zero_index_bits_single_counter(self):
        t = CounterTable(0)
        assert len(t) == 1
        t.update(0, True)
        assert t.predict(0)

    def test_rejects_negative_index_bits(self):
        with pytest.raises(ValueError):
            CounterTable(-1)

    def test_rejects_huge_tables(self):
        with pytest.raises(ValueError):
            CounterTable(30)

    def test_threshold_and_max_state(self):
        t = CounterTable(2, bits=3)
        assert t.threshold == 4
        assert t.max_state == 7
