"""The (enhanced) gskewed predictor [MichaudSeznecUhlig97].

The paper's related-work comparison point: three PHT banks indexed by
*different* hashes of (branch address, global history) and combined by
majority vote.  Because the skewing functions are inter-bank
decorrelated, two branch/history pairs that collide in one bank almost
never collide in the other two, so the majority vote out-votes the
aliased bank.

The original paper builds its skewing functions from GF(2) matrices
(bit-rotation + XOR).  We implement that family directly: bank ``k``
indexes with ``rot_k(pc_lo) ^ rot_k'(hist) ^ pc_hi``-style mixes built
from :func:`_rotate`, which preserves the two properties the scheme
needs — each function is a bijection of the index space, and the
pairwise XOR of any two functions is also (close to) a bijection.

Two update policies are provided:

* ``total`` — all three banks train on every branch;
* ``enhanced`` (default, the paper's *e-gskew* policy) — on a correct
  prediction only the banks that voted with the majority train; on a
  misprediction all banks train.
"""

from __future__ import annotations

from repro.core.counters import WEAKLY_TAKEN, CounterTable
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import mask
from repro.core.interfaces import BranchPredictor

__all__ = ["GSkewPredictor"]


def _rotate(value: int, amount: int, bits: int) -> int:
    """Rotate ``value`` left by ``amount`` within a ``bits``-wide word."""
    if bits == 0:
        return 0
    amount %= bits
    m = mask(bits)
    value &= m
    return ((value << amount) | (value >> (bits - amount))) & m


class GSkewPredictor(BranchPredictor):
    """Three-bank skewed predictor with majority vote.

    Parameters
    ----------
    bank_index_bits:
        log2 of each bank's size (three banks total).
    history_bits:
        Global history length mixed into every bank index.
    update_policy:
        ``"enhanced"`` (partial update, default) or ``"total"``.
    """

    scheme = "gskew"

    NUM_BANKS = 3

    def __init__(
        self,
        bank_index_bits: int,
        history_bits: int | None = None,
        update_policy: str = "enhanced",
    ):
        if bank_index_bits < 0:
            raise ValueError(f"bank_index_bits must be >= 0, got {bank_index_bits}")
        if history_bits is None:
            history_bits = bank_index_bits
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if update_policy not in ("enhanced", "total"):
            raise ValueError(f"unknown update policy {update_policy!r}")
        self.bank_index_bits = bank_index_bits
        self.history_bits = history_bits
        self.update_policy = update_policy
        self.banks = [
            CounterTable(bank_index_bits, init=WEAKLY_TAKEN)
            for _ in range(self.NUM_BANKS)
        ]
        self.ghr = GlobalHistoryRegister(history_bits)

    @property
    def name(self) -> str:
        return (
            f"gskew:banks=3x2^{self.bank_index_bits},hist={self.history_bits},"
            f"update={self.update_policy}"
        )

    def size_bits(self) -> int:
        return sum(bank.size_bits() for bank in self.banks)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.ghr.reset()

    # -- skewing functions -------------------------------------------------------

    def _indices(self, pc: int) -> tuple:
        """One index per bank; distinct rotations decorrelate the banks."""
        bits = self.bank_index_bits
        m = mask(bits)
        pc_lo = pc & m
        pc_hi = (pc >> bits) & m
        hist = self.ghr.value & m if bits else 0
        i0 = pc_lo ^ _rotate(hist, 0, bits)
        i1 = _rotate(pc_lo, 1, bits) ^ _rotate(hist, bits // 2, bits) ^ pc_hi
        i2 = _rotate(pc_lo, 2, bits) ^ _rotate(hist, (2 * bits) // 3, bits) ^ _rotate(pc_hi, 1, bits)
        return i0, i1, i2

    # -- step interface --------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        votes = sum(
            bank.predict(index) for bank, index in zip(self.banks, self._indices(pc))
        )
        return votes >= 2

    def _counter_id(self, pc: int) -> int:
        """Counter attribution for the majority vote: the prediction is
        credited to the first bank (lowest bank number) that voted with
        the majority, at id ``bank * bank_size + index``."""
        indices = self._indices(pc)
        votes = [bank.predict(index) for bank, index in zip(self.banks, indices)]
        k = votes.index(sum(votes) >= 2)
        return k * self.banks[0].size + indices[k]

    def _num_detail_counters(self) -> int:
        return self.NUM_BANKS * self.banks[0].size

    def update(self, pc: int, taken: bool) -> None:
        indices = self._indices(pc)
        bank_predictions = [
            bank.predict(index) for bank, index in zip(self.banks, indices)
        ]
        majority = sum(bank_predictions) >= 2
        if self.update_policy == "total" or majority != taken:
            # total update, and e-gskew's all-banks-on-misprediction rule
            for bank, index in zip(self.banks, indices):
                bank.update(index, taken)
        else:
            # e-gskew: correct prediction trains only the agreeing banks
            for bank, index, voted in zip(self.banks, indices, bank_predictions):
                if voted == majority:
                    bank.update(index, taken)
        self.ghr.push(taken)
