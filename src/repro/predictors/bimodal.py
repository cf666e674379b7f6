"""The Smith bimodal predictor [Smith81].

A single table of 2-bit counters indexed by low-order branch-address
bits — the "conventional two-bit counter scheme" the paper's Section 2.1
discusses, and exactly the structure the bi-mode predictor reuses as its
*choice predictor*.  It captures per-address bias (typically 80 %+
accuracy at modest cost) but no inter-branch correlation.
"""

from __future__ import annotations

from repro.core.counters import CounterTable
from repro.core.indexing import mask
from repro.core.interfaces import BranchPredictor

__all__ = ["BimodalPredictor"]


class BimodalPredictor(BranchPredictor):
    """Per-address 2-bit counter table.

    Parameters
    ----------
    index_bits:
        log2 of the counter table size.
    counter_bits:
        Counter width (2 in all classic designs; other widths support
        the ablation studies).
    """

    scheme = "bimodal"

    def __init__(self, index_bits: int, counter_bits: int = 2):
        if index_bits < 0:
            raise ValueError(f"index_bits must be >= 0, got {index_bits}")
        init = 1 << (counter_bits - 1)  # weakly taken for any width
        self.index_bits = index_bits
        self.table = CounterTable(index_bits, bits=counter_bits, init=init)
        self._mask = mask(index_bits)

    @property
    def name(self) -> str:
        if self.table.bits != 2:
            return f"bimodal:index={self.index_bits},bits={self.table.bits}"
        return f"bimodal:index={self.index_bits}"

    def size_bits(self) -> int:
        return self.table.size_bits()

    def reset(self) -> None:
        self.table.reset()

    def predict(self, pc: int) -> bool:
        return self.table.predict(pc & self._mask)

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(pc & self._mask, taken)

    def _counter_id(self, pc: int) -> int:
        return pc & self._mask

    def _num_detail_counters(self) -> int:
        return self.table.size
