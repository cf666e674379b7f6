"""Unit tests for the PHT index functions."""

import numpy as np
import pytest

from repro.core.indexing import (
    concat_index,
    concat_index_stream,
    gshare_index,
    gshare_index_stream,
    mask,
    num_phts,
)


class TestMask:
    def test_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 255

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestGshareIndex:
    def test_full_history_xor(self):
        # 8-bit index, full history: plain xor of the low bytes
        assert gshare_index(0b10101010, 0b01010101, 8, 8) == 0xFF

    def test_pc_truncated_to_index_bits(self):
        assert gshare_index(0x1F3, 0, 8, 8) == 0xF3

    def test_history_truncated_to_history_bits(self):
        # only 2 history bits participate: top 6 index bits come from pc
        assert gshare_index(0b11110000, 0b111111, 8, 2) == 0b11110011

    def test_zero_history_bits_is_pure_address_index(self):
        assert gshare_index(0xAB, 0xFF, 8, 0) == 0xAB

    def test_index_fits_table(self):
        for pc in (0, 123, 0xFFFF):
            for hist in (0, 0b1011, 0xFFFF):
                assert 0 <= gshare_index(pc, hist, 6, 4) < 64

    def test_rejects_history_longer_than_index(self):
        with pytest.raises(ValueError):
            gshare_index(0, 0, 4, 5)

    def test_multiple_pht_structure(self):
        """With m < n, indices with the same pc share the top n-m bits —
        the multi-PHT organization of the paper's footnote 1."""
        pc = 0b1101_0110
        tops = {
            gshare_index(pc, hist, 8, 3) >> 3 for hist in range(64)
        }
        assert tops == {pc >> 3 & 0b11111}


class TestNumPhts:
    def test_single_pht(self):
        assert num_phts(10, 10) == 1

    def test_multi_pht(self):
        assert num_phts(10, 7) == 8

    def test_address_only(self):
        assert num_phts(8, 0) == 256

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            num_phts(4, 5)


class TestConcatIndex:
    def test_layout(self):
        # pc bits above history bits
        assert concat_index(0b101, 3, 0b11, 2) == 0b11_101

    def test_zero_pc_bits(self):
        assert concat_index(0b1011, 4, 0xFF, 0) == 0b1011

    def test_zero_history_bits(self):
        assert concat_index(0xFF, 0, 0b101, 3) == 0b101


class TestStreamForms:
    def test_gshare_stream_matches_scalar(self):
        rng = np.random.default_rng(1)
        pcs = rng.integers(0, 1 << 16, 200)
        hists = rng.integers(0, 1 << 16, 200)
        stream = gshare_index_stream(pcs, hists, 10, 6)
        for i in range(200):
            assert stream[i] == gshare_index(int(pcs[i]), int(hists[i]), 10, 6)

    def test_concat_stream_matches_scalar(self):
        rng = np.random.default_rng(2)
        pcs = rng.integers(0, 1 << 16, 200)
        hists = rng.integers(0, 1 << 16, 200)
        stream = concat_index_stream(hists, 5, pcs, 4)
        for i in range(200):
            assert stream[i] == concat_index(int(hists[i]), 5, int(pcs[i]), 4)

    def test_gshare_stream_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            gshare_index_stream(np.array([1]), np.array([1]), 4, 5)
