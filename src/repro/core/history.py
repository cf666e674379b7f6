"""Branch-history registers.

Two-level predictors [YehPatt91] keep a *first level* of branch history:

* a single **global history register** (GHR) recording the outcomes of
  the most recent conditional branches, used by the GAx / gshare /
  bi-mode family, or
* a **per-address history table** (BHT) with one shift register per
  static branch (folded by low-order PC bits), used by the PAx family.

Conventions used throughout this package:

* a *taken* outcome is recorded as bit ``1``;
* the most recent outcome occupies the **least significant bit**;
* registers are initialized to all zeros (all not-taken).

Because history contents depend only on the resolved outcomes in the
trace — never on predictions — history streams can be precomputed for a
whole trace.  :func:`global_history_stream` does this vectorized with
numpy; it is the workhorse behind the fast simulation paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import check_index_bits

__all__ = [
    "GlobalHistoryRegister",
    "PerAddressHistoryTable",
    "global_history_stream",
]


class GlobalHistoryRegister:
    """A ``bits``-wide shift register of recent global branch outcomes.

    Examples
    --------
    >>> ghr = GlobalHistoryRegister(4)
    >>> for taken in (True, True, False, True):
    ...     ghr.push(taken)
    >>> bin(ghr.value)              # pushes T,T,F,T -> bits 1101, newest in LSB
    '0b1101'
    """

    __slots__ = ("bits", "_mask", "value")

    def __init__(self, bits: int, value: int = 0):
        if bits < 0:
            raise ValueError(f"history width must be >= 0, got {bits}")
        if bits > 62:
            raise ValueError(f"history width {bits} is unreasonably large")
        self.bits = bits
        self._mask = (1 << bits) - 1
        if value & ~self._mask:
            raise ValueError(f"value {value:#x} does not fit in {bits} bits")
        self.value = value

    def push(self, taken: bool) -> None:
        """Shift the outcome of the newest resolved branch into the register."""
        self.value = ((self.value << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        self.value = 0

    @property
    def mask(self) -> int:
        return self._mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalHistoryRegister(bits={self.bits}, value={self.value:#x})"


class PerAddressHistoryTable:
    """First-level table of per-branch history registers (PAx schemes).

    The table holds ``2**index_bits`` shift registers, selected by the
    branch's low-order PC bits.  Distinct static branches that collide in
    the table share a register — the first-level analogue of PHT
    aliasing.

    Parameters
    ----------
    index_bits:
        log2 of the number of history registers.
    history_bits:
        Width of each register.
    """

    __slots__ = ("index_bits", "history_bits", "_index_mask", "_hist_mask", "registers")

    def __init__(self, index_bits: int, history_bits: int):
        check_index_bits(index_bits)
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        self.index_bits = index_bits
        self.history_bits = history_bits
        self._index_mask = (1 << index_bits) - 1
        self._hist_mask = (1 << history_bits) - 1
        self.registers = [0] * (1 << index_bits)

    def read(self, pc: int) -> int:
        """History register contents for the branch at ``pc``."""
        return self.registers[pc & self._index_mask]

    def push(self, pc: int, taken: bool) -> None:
        """Record the resolved outcome of the branch at ``pc``."""
        i = pc & self._index_mask
        self.registers[i] = ((self.registers[i] << 1) | (1 if taken else 0)) & self._hist_mask

    def reset(self) -> None:
        self.registers = [0] * (1 << self.index_bits)

    def size_bits(self) -> int:
        """First-level storage cost in bits."""
        return len(self.registers) * self.history_bits

    def __len__(self) -> int:
        return len(self.registers)


def global_history_stream(
    outcomes: np.ndarray, bits: int, initial: int = 0
) -> np.ndarray:
    """Global-history value seen by each branch in a trace, vectorized.

    ``result[t]`` is the GHR contents *at prediction time* of branch
    ``t``, i.e. built from ``outcomes[:t]`` shifted into a register that
    starts at ``initial``.  This matches driving a
    :class:`GlobalHistoryRegister` (pre-loaded with ``initial``, e.g.
    by an earlier trace chunk) with ``push(outcomes[t])`` *after* predicting
    branch ``t``.

    Parameters
    ----------
    outcomes:
        Boolean (or 0/1) array of resolved branch outcomes.
    bits:
        History width; the result fits in ``bits`` bits.
    initial:
        Register contents before the first branch (default: power-on 0).

    Returns
    -------
    numpy.ndarray of ``int64``, same length as ``outcomes``.
    """
    if bits < 0:
        raise ValueError(f"history width must be >= 0, got {bits}")
    outcomes = np.asarray(outcomes)
    n = len(outcomes)
    hist = np.zeros(n, dtype=np.int64)
    if bits == 0 or n == 0:
        return hist
    bits_arr = outcomes.astype(np.int64)
    # outcome of branch t-1-j contributes bit j of result[t]
    for j in range(bits):
        shift = j + 1
        if shift >= n:
            break
        hist[shift:] |= bits_arr[:-shift] << j
    if initial:
        mask = (1 << bits) - 1
        initial &= mask
        # result[t] currently holds only outcome bits (the low t bits);
        # the initial register contents occupy the remaining high bits
        # for the first `bits` branches, shifted left once per branch
        for t in range(min(bits, n)):
            hist[t] |= (initial << t) & mask
    return hist
