"""Tri-mode predictor — the paper's future-work direction, realized.

The bi-mode paper's conclusion names two open directions: reduce the
weakly-biased substreams, or "further separate the weakly-biased
substreams from the strongly-biased substreams for the counters".  This
module implements the second as a natural extension of the bi-mode
structure: a **third direction bank for weakly-biased branches**.

The choice predictor is reused as a three-way classifier at zero extra
cost: its 2-bit counter state already distinguishes *strong* bias
(saturated states 0 and 3) from *weak* bias (middle states 1 and 2).

* choice state 3 (strongly taken)      -> taken bank
* choice state 0 (strongly not-taken)  -> not-taken bank
* choice states 1-2 (weak)             -> weak bank

The taken/not-taken banks then hold only streams whose per-address bias
is stable, so they stay even more unidirectional than bi-mode's, while
the weakly-biased branches — whose history patterns carry the real
information — get a private bank where they cannot disturb the biased
majority.

Update policy mirrors bi-mode: only the selected bank trains; the
choice counter trains with the outcome except when its *classification*
was contradicted by the outcome while the selected direction counter
was nevertheless correct.

This is a research extension, not part of the original paper; the
``bench_compare_dealiasing`` benchmark reports how it fares.
"""

from __future__ import annotations

from repro.core.counters import (
    STRONGLY_NOT_TAKEN,
    STRONGLY_TAKEN,
    WEAKLY_NOT_TAKEN,
    WEAKLY_TAKEN,
    CounterTable,
)
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import gshare_index, mask
from repro.core.interfaces import BranchPredictor

__all__ = ["TriModePredictor"]

_NOT_TAKEN_BANK = 0
_TAKEN_BANK = 1
_WEAK_BANK = 2


class TriModePredictor(BranchPredictor):
    """Bi-mode with a third bank dedicated to weakly-biased branches.

    Parameters
    ----------
    direction_index_bits:
        log2 of each of the three direction banks.
    history_bits:
        Global history hashed into the direction index (defaults to the
        full index width).
    choice_index_bits:
        log2 of the choice predictor size (defaults to
        ``direction_index_bits``).
    """

    scheme = "trimode"

    def __init__(
        self,
        direction_index_bits: int,
        history_bits: int | None = None,
        choice_index_bits: int | None = None,
    ):
        if direction_index_bits < 0:
            raise ValueError(
                f"direction_index_bits must be >= 0, got {direction_index_bits}"
            )
        if history_bits is None:
            history_bits = direction_index_bits
        if not 0 <= history_bits <= direction_index_bits:
            raise ValueError(
                f"history_bits ({history_bits}) must be in [0, {direction_index_bits}]"
            )
        if choice_index_bits is None:
            choice_index_bits = direction_index_bits
        if choice_index_bits < 0:
            raise ValueError(f"choice_index_bits must be >= 0, got {choice_index_bits}")

        self.direction_index_bits = direction_index_bits
        self.history_bits = history_bits
        self.choice_index_bits = choice_index_bits

        self.banks = [
            CounterTable(direction_index_bits, init=WEAKLY_NOT_TAKEN),  # NT bank
            CounterTable(direction_index_bits, init=WEAKLY_TAKEN),  # T bank
            CounterTable(direction_index_bits, init=WEAKLY_TAKEN),  # weak bank
        ]
        self.choice = CounterTable(choice_index_bits, init=WEAKLY_TAKEN)
        self.ghr = GlobalHistoryRegister(history_bits)

    @property
    def name(self) -> str:
        return (
            f"trimode:dir=3x2^{self.direction_index_bits},"
            f"hist={self.history_bits},choice=2^{self.choice_index_bits}"
        )

    @property
    def bank_size(self) -> int:
        return self.banks[0].size

    def size_bits(self) -> int:
        return sum(b.size_bits() for b in self.banks) + self.choice.size_bits()

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.choice.reset()
        self.ghr.reset()

    # -- mode classification ---------------------------------------------------

    @staticmethod
    def _bank_of(choice_state: int) -> int:
        if choice_state == STRONGLY_TAKEN:
            return _TAKEN_BANK
        if choice_state == STRONGLY_NOT_TAKEN:
            return _NOT_TAKEN_BANK
        return _WEAK_BANK

    def _choice_index(self, pc: int) -> int:
        return pc & mask(self.choice_index_bits)

    def _direction_index(self, pc: int) -> int:
        return gshare_index(
            pc, self.ghr.value, self.direction_index_bits, self.history_bits
        )

    # -- step interface -----------------------------------------------------------

    def predict(self, pc: int) -> bool:
        state = self.choice.states[self._choice_index(pc)]
        bank = self.banks[self._bank_of(state)]
        return bank.predict(self._direction_index(pc))

    def _counter_id(self, pc: int) -> int:
        """The selected bank's counter at ``bank * bank_size + index``."""
        bank_id = self._bank_of(self.choice.states[self._choice_index(pc)])
        return bank_id * self.bank_size + self._direction_index(pc)

    def _num_detail_counters(self) -> int:
        return 3 * self.bank_size

    def update(self, pc: int, taken: bool) -> None:
        choice_index = self._choice_index(pc)
        direction_index = self._direction_index(pc)
        choice_state = self.choice.states[choice_index]
        bank_id = self._bank_of(choice_state)
        selected = self.banks[bank_id]
        final = selected.predict(direction_index)

        selected.update(direction_index, taken)

        # choice trains unless its (strong) classification was wrong in
        # direction but the selected counter got the branch right —
        # bi-mode's partial-update exception generalized to three modes
        classified_direction = choice_state >= 2
        if not (classified_direction != taken and final == taken):
            self.choice.update(choice_index, taken)

        self.ghr.push(taken)
