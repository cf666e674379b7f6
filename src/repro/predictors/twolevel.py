"""The classic two-level adaptive predictor family [YehPatt91, YehPatt92].

A two-level predictor pairs a *first level* of branch history with a
*second level* of 2-bit-counter PHTs.  Yeh & Patt's taxonomy names the
variants ``{G,P}A{g,s,p}``:

* first letter — history: **G**\\ lobal register or **P**\\ er-address
  table;
* last letter — PHT organization: one **g**\\ lobal PHT, one PHT per
  address **s**\\ et, or one per **p**\\ er-address.

This module implements the family with one generic class using the
concatenation index (``pht_select_bits`` address bits above
``history_bits`` history bits):

=======  ===========================  ==========================
scheme   first level                  ``pht_select_bits``
=======  ===========================  ==========================
GAg      global register              0
GAs      global register              > 0
GAp      global register              enough to avoid set sharing
PAg      per-address history table    0
PAs      per-address history table    > 0
PAp      per-address history table    enough to avoid set sharing
=======  ===========================  ==========================

``GAs`` with the concatenation index is also exactly McFarling's
*gselect*; :class:`GSelectPredictor` is provided as the conventionally
named alias.

The "p" variants index the PHT with as many address bits as requested;
with finite tables they are "s" variants with a large set count, which
is how real hardware approximates them as well.
"""

from __future__ import annotations

from repro.core.counters import WEAKLY_TAKEN, CounterTable
from repro.core.history import GlobalHistoryRegister, PerAddressHistoryTable
from repro.core.indexing import concat_index
from repro.core.interfaces import BranchPredictor

__all__ = [
    "TwoLevelPredictor",
    "GAgPredictor",
    "GAsPredictor",
    "GApPredictor",
    "PAgPredictor",
    "PAsPredictor",
    "PApPredictor",
    "GSelectPredictor",
]


class TwoLevelPredictor(BranchPredictor):
    """Generic two-level adaptive predictor.

    Parameters
    ----------
    history_bits:
        First-level history length (per register).
    pht_select_bits:
        Branch-address bits concatenated above the history bits to
        select among ``2**pht_select_bits`` PHTs.
    per_address:
        ``True`` for PAx (a table of per-branch history registers),
        ``False`` for GAx (one global register).
    bht_index_bits:
        log2 of the per-address history-table size; required iff
        ``per_address``.
    """

    scheme = "twolevel"

    def __init__(
        self,
        history_bits: int,
        pht_select_bits: int = 0,
        per_address: bool = False,
        bht_index_bits: int | None = None,
    ):
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if pht_select_bits < 0:
            raise ValueError(f"pht_select_bits must be >= 0, got {pht_select_bits}")
        self.history_bits = history_bits
        self.pht_select_bits = pht_select_bits
        self.per_address = per_address
        self.index_bits = history_bits + pht_select_bits
        self.table = CounterTable(self.index_bits, init=WEAKLY_TAKEN)
        if per_address:
            if bht_index_bits is None:
                raise ValueError("per-address schemes require bht_index_bits")
            self.bht = PerAddressHistoryTable(bht_index_bits, history_bits)
            self.ghr = None
        else:
            if bht_index_bits is not None:
                raise ValueError("bht_index_bits only applies to per-address schemes")
            self.bht = None
            self.ghr = GlobalHistoryRegister(history_bits)

    @property
    def name(self) -> str:
        level1 = f"pa(2^{self.bht.index_bits})" if self.per_address else "g"
        return (
            f"twolevel:{level1},hist={self.history_bits},phts=2^{self.pht_select_bits}"
        )

    def size_bits(self) -> int:
        """Second-level counter storage (the paper's cost metric).

        First-level history bits are reported by :meth:`history_bits_cost`
        and excluded here, matching the paper's byte accounting which
        counts 2-bit-counter bytes only.
        """
        return self.table.size_bits()

    def history_bits_cost(self) -> int:
        """First-level storage in bits (GHR width or BHT total)."""
        if self.per_address:
            return self.bht.size_bits()
        return self.history_bits

    def reset(self) -> None:
        self.table.reset()
        if self.per_address:
            self.bht.reset()
        else:
            self.ghr.reset()

    # -- step interface ---------------------------------------------------------

    def _history(self, pc: int) -> int:
        if self.per_address:
            return self.bht.read(pc)
        return self.ghr.value

    def _index(self, pc: int) -> int:
        return concat_index(
            self._history(pc), self.history_bits, pc, self.pht_select_bits
        )

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)
        if self.per_address:
            self.bht.push(pc, taken)
        else:
            self.ghr.push(taken)

    def _counter_id(self, pc: int) -> int:
        return self._index(pc)

    def _num_detail_counters(self) -> int:
        return self.table.size


class GAgPredictor(TwoLevelPredictor):
    """GAg: global history register, a single PHT indexed by history only."""

    scheme = "gag"

    def __init__(self, history_bits: int):
        super().__init__(history_bits=history_bits, pht_select_bits=0)

    @property
    def name(self) -> str:
        return f"gag:hist={self.history_bits}"


class GAsPredictor(TwoLevelPredictor):
    """GAs: global history register, address-selected PHT sets."""

    scheme = "gas"

    def __init__(self, history_bits: int, pht_select_bits: int):
        if pht_select_bits < 1:
            raise ValueError("GAs needs at least one PHT-select bit (else use GAg)")
        super().__init__(history_bits=history_bits, pht_select_bits=pht_select_bits)

    @property
    def name(self) -> str:
        return f"gas:hist={self.history_bits},phts=2^{self.pht_select_bits}"


class GSelectPredictor(GAsPredictor):
    """McFarling's gselect — structurally GAs with the concatenation index."""

    scheme = "gselect"

    @property
    def name(self) -> str:
        return f"gselect:hist={self.history_bits},addr={self.pht_select_bits}"


class PAgPredictor(TwoLevelPredictor):
    """PAg: per-address history table, one global PHT."""

    scheme = "pag"

    def __init__(self, history_bits: int, bht_index_bits: int):
        super().__init__(
            history_bits=history_bits,
            pht_select_bits=0,
            per_address=True,
            bht_index_bits=bht_index_bits,
        )

    @property
    def name(self) -> str:
        return f"pag:hist={self.history_bits},bht=2^{self.bht.index_bits}"


class PAsPredictor(TwoLevelPredictor):
    """PAs: per-address history table, address-selected PHT sets."""

    scheme = "pas"

    def __init__(self, history_bits: int, pht_select_bits: int, bht_index_bits: int):
        if pht_select_bits < 1:
            raise ValueError("PAs needs at least one PHT-select bit (else use PAg)")
        super().__init__(
            history_bits=history_bits,
            pht_select_bits=pht_select_bits,
            per_address=True,
            bht_index_bits=bht_index_bits,
        )

    @property
    def name(self) -> str:
        return (
            f"pas:hist={self.history_bits},phts=2^{self.pht_select_bits},"
            f"bht=2^{self.bht.index_bits}"
        )


class GApPredictor(GAsPredictor):
    """GAp approximation: one PHT set per address bit pattern.

    True GAp gives every static branch a private PHT; with finite
    hardware it is a GAs with as many select bits as the budget allows,
    which is also how Yeh & Patt's implementation study sizes it.
    """

    scheme = "gap"

    def __init__(self, history_bits: int, address_bits: int = 8):
        super().__init__(history_bits=history_bits, pht_select_bits=address_bits)

    @property
    def name(self) -> str:
        return f"gap:hist={self.history_bits},addr={self.pht_select_bits}"


class PApPredictor(PAsPredictor):
    """PAp approximation: per-address history and per-address PHT sets."""

    scheme = "pap"

    def __init__(self, history_bits: int, address_bits: int, bht_index_bits: int):
        super().__init__(
            history_bits=history_bits,
            pht_select_bits=address_bits,
            bht_index_bits=bht_index_bits,
        )

    @property
    def name(self) -> str:
        return (
            f"pap:hist={self.history_bits},addr={self.pht_select_bits},"
            f"bht=2^{self.bht.index_bits}"
        )
