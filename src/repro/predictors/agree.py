"""The agree predictor [Sprangle97], a contemporary de-aliasing scheme.

The paper's related-work section cites the agree predictor as one of the
proposals attacking PHT interference.  Instead of storing branch
*directions*, the PHT stores whether the branch will *agree* with a
per-branch **biasing bit**.  Two oppositely-biased branches aliasing to
the same PHT counter then both train it toward "agree", converting
destructive interference into neutral/constructive interference — the
same goal the bi-mode predictor reaches by bank selection.

The biasing bit lives alongside the BTB entry in hardware; here it is a
direct-mapped bit table indexed by branch address, set to the branch's
*first observed outcome* (the policy Sprangle et al. found adequate).
Bias-bit storage is reported separately from counter storage, mirroring
the paper's counter-bytes cost metric.
"""

from __future__ import annotations

from repro.core.counters import WEAKLY_TAKEN, CounterTable, check_index_bits
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import gshare_index, mask
from repro.core.interfaces import BranchPredictor

__all__ = ["AgreePredictor"]


class AgreePredictor(BranchPredictor):
    """gshare-indexed agree predictor with first-outcome biasing bits.

    Parameters
    ----------
    index_bits:
        log2 of the agree-counter PHT size.
    history_bits:
        Global history length hashed into the PHT index.  Defaults to
        ``index_bits``.
    bias_index_bits:
        log2 of the biasing-bit table size.  Defaults to ``index_bits``.
    """

    scheme = "agree"

    def __init__(
        self,
        index_bits: int,
        history_bits: int | None = None,
        bias_index_bits: int | None = None,
    ):
        if index_bits < 0:
            raise ValueError(f"index_bits must be >= 0, got {index_bits}")
        if history_bits is None:
            history_bits = index_bits
        if not 0 <= history_bits <= index_bits:
            raise ValueError(
                f"history_bits ({history_bits}) must be in [0, {index_bits}]"
            )
        if bias_index_bits is None:
            bias_index_bits = index_bits
        check_index_bits(bias_index_bits, "bias_index_bits")
        self.index_bits = index_bits
        self.history_bits = history_bits
        self.bias_index_bits = bias_index_bits
        # Counters predict "agree with bias"; taken-state == agree.
        self.table = CounterTable(index_bits, init=WEAKLY_TAKEN)
        self.ghr = GlobalHistoryRegister(history_bits)
        self._bias_mask = mask(bias_index_bits)
        self.bias_bits = [False] * (1 << bias_index_bits)
        self.bias_valid = [False] * (1 << bias_index_bits)

    @property
    def name(self) -> str:
        return (
            f"agree:index={self.index_bits},hist={self.history_bits},"
            f"bias=2^{self.bias_index_bits}"
        )

    def size_bits(self) -> int:
        """Counter storage only (paper metric); see :meth:`bias_storage_bits`."""
        return self.table.size_bits()

    def bias_storage_bits(self) -> int:
        """Biasing-bit storage (valid + bias bit per entry)."""
        return 2 * len(self.bias_bits)

    def reset(self) -> None:
        self.table.reset()
        self.ghr.reset()
        self.bias_bits = [False] * len(self.bias_bits)
        self.bias_valid = [False] * len(self.bias_valid)

    def _bias(self, pc: int) -> bool:
        """Current biasing bit (not-taken until the branch is first seen)."""
        return self.bias_bits[pc & self._bias_mask]

    def _index(self, pc: int) -> int:
        return gshare_index(pc, self.ghr.value, self.index_bits, self.history_bits)

    def _counter_id(self, pc: int) -> int:
        """The agree-PHT entry: its id is the gshare index, exactly as
        for gshare itself."""
        return self._index(pc)

    def _num_detail_counters(self) -> int:
        return self.table.size

    def predict(self, pc: int) -> bool:
        agree = self.table.predict(self._index(pc))
        return self._bias(pc) == agree

    def update(self, pc: int, taken: bool) -> None:
        bias_slot = pc & self._bias_mask
        if not self.bias_valid[bias_slot]:
            # first dynamic occurrence sets the biasing bit
            self.bias_valid[bias_slot] = True
            self.bias_bits[bias_slot] = taken
        agreed = self.bias_bits[bias_slot] == taken
        self.table.update(self._index(pc), agreed)
        self.ghr.push(taken)
