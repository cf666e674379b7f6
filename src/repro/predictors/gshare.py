"""The gshare predictor [McFarling93], the paper's primary baseline.

gshare xor-es the global history with the low-order branch address bits
to index a single table of 2-bit counters.  The paper (Section 3.1,
following [SechrestLeeMudge96]) is careful to compare against the *best*
gshare configuration, which generally uses fewer history bits than index
bits — equivalently, multiple PHTs: with ``h`` history bits and ``n``
index bits, the top ``n - h`` index bits come from the address alone,
giving ``2**(n-h)`` PHTs of ``2**h`` counters (paper footnote 1).

``GSharePredictor(n, n)`` is the classic single-PHT *gshare.1PHT*;
``GSharePredictor(n, h)`` with ``h < n`` is the multi-PHT family over
which *gshare.best* is searched (see
:func:`repro.analysis.sweep.best_gshare_search`).

All counters initialize weakly-taken (paper footnote 2).
"""

from __future__ import annotations

from repro.core.counters import WEAKLY_TAKEN, CounterTable
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import gshare_index, num_phts
from repro.core.interfaces import BranchPredictor

__all__ = ["GSharePredictor"]


class GSharePredictor(BranchPredictor):
    """gshare with a configurable history length.

    Parameters
    ----------
    index_bits:
        log2 of the PHT size; the table holds ``2**index_bits`` 2-bit
        counters.
    history_bits:
        Global history length, ``0 <= history_bits <= index_bits``.
        Defaults to ``index_bits`` (single-PHT gshare).  With 0 the
        predictor degenerates to a Smith bimodal table.
    """

    scheme = "gshare"

    def __init__(self, index_bits: int, history_bits: int | None = None):
        if index_bits < 0:
            raise ValueError(f"index_bits must be >= 0, got {index_bits}")
        if history_bits is None:
            history_bits = index_bits
        if not 0 <= history_bits <= index_bits:
            raise ValueError(
                f"history_bits ({history_bits}) must be in [0, {index_bits}]"
            )
        self.index_bits = index_bits
        self.history_bits = history_bits
        self.table = CounterTable(index_bits, init=WEAKLY_TAKEN)
        self.ghr = GlobalHistoryRegister(history_bits)

    @property
    def name(self) -> str:
        return f"gshare:index={self.index_bits},hist={self.history_bits}"

    @property
    def num_phts(self) -> int:
        """PHT count in the two-level model (1 when fully history-hashed)."""
        return num_phts(self.index_bits, self.history_bits)

    def size_bits(self) -> int:
        return self.table.size_bits()

    def reset(self) -> None:
        self.table.reset()
        self.ghr.reset()

    # -- step interface ----------------------------------------------------------

    def _index(self, pc: int) -> int:
        return gshare_index(pc, self.ghr.value, self.index_bits, self.history_bits)

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)
        self.ghr.push(taken)

    def _counter_id(self, pc: int) -> int:
        return self._index(pc)

    def _num_detail_counters(self) -> int:
        return self.table.size
