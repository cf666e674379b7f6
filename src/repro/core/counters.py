"""Saturating-counter primitives.

The paper's predictors are built entirely from 2-bit saturating up-down
counters (Smith counters).  A counter holds a state in ``[0, 3]``:

====== ===================== ==========
state  meaning               prediction
====== ===================== ==========
0      strongly not-taken    not taken
1      weakly not-taken      not taken
2      weakly taken          taken
3      strongly taken        taken
====== ===================== ==========

A *taken* outcome increments the state (saturating at 3), a *not-taken*
outcome decrements it (saturating at 0).  The prediction is the counter's
sign bit, i.e. ``state >= 2``.

:class:`CounterTable` is an array of counters backed by a Python list
of small ints, the storage used by every table-based predictor.  The
list representation (rather than a numpy array) is deliberate: the
per-branch simulation loops index it with Python ints, where list
access is several times faster than numpy scalar access.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

__all__ = [
    "WEAKLY_NOT_TAKEN",
    "WEAKLY_TAKEN",
    "STRONGLY_NOT_TAKEN",
    "STRONGLY_TAKEN",
    "MAX_INDEX_BITS",
    "check_index_bits",
    "CounterTable",
]

STRONGLY_NOT_TAKEN = 0
WEAKLY_NOT_TAKEN = 1
WEAKLY_TAKEN = 2
STRONGLY_TAKEN = 3

#: Widest table index any predictor table allocates: every constructor
#: checks its table widths with :func:`check_index_bits`.
MAX_INDEX_BITS = 24


def check_index_bits(index_bits: int, name: str = "index_bits") -> None:
    """Refuse a table index width outside ``0..MAX_INDEX_BITS``."""
    if index_bits < 0:
        raise ValueError(f"{name} must be >= 0, got {index_bits}")
    if index_bits > MAX_INDEX_BITS:
        raise ValueError(
            f"{name}={index_bits} would allocate {1 << index_bits} entries; "
            "refusing (likely a mis-parsed size)"
        )


class CounterTable:
    """A table of 2-bit (by default) saturating counters.

    This is the PHT building block.  Storage is a plain Python list so
    the hot simulation loops can read and write entries at native list
    speed; :meth:`as_array` exposes a numpy copy for analysis code.

    Parameters
    ----------
    index_bits:
        The table holds ``2**index_bits`` counters.
    bits:
        Counter width (2 in the paper).
    init:
        Initial state for every counter.  The paper initializes gshare
        tables and the bi-mode choice predictor to weakly-taken, the
        bi-mode taken bank to weakly-taken and the not-taken bank to
        weakly-not-taken.
    """

    __slots__ = ("index_bits", "bits", "init", "size", "_max", "_threshold", "states")

    def __init__(self, index_bits: int, bits: int = 2, init: int = WEAKLY_TAKEN):
        check_index_bits(index_bits)
        if bits < 1:
            raise ValueError(f"counter width must be >= 1 bit, got {bits}")
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        if not 0 <= init <= self._max:
            raise ValueError(f"initial state {init} out of range [0, {self._max}]")
        self.index_bits = index_bits
        self.bits = bits
        self.init = init
        self.size = 1 << index_bits
        self.states: List[int] = [init] * self.size

    # -- single-access interface -------------------------------------------------

    def predict(self, index: int) -> bool:
        """Predicted direction of the counter at ``index``."""
        return self.states[index] >= self._threshold

    def update(self, index: int, taken: bool) -> None:
        """Train the counter at ``index`` with the branch outcome."""
        state = self.states[index]
        if taken:
            if state < self._max:
                self.states[index] = state + 1
        elif state > 0:
            self.states[index] = state - 1

    def predict_and_update(self, index: int, taken: bool) -> bool:
        """Predict at ``index`` then train with ``taken``; returns the prediction."""
        state = self.states[index]
        if taken:
            if state < self._max:
                self.states[index] = state + 1
        elif state > 0:
            self.states[index] = state - 1
        return state >= self._threshold

    # -- bulk / analysis interface -----------------------------------------------

    def reset(self, init: int | None = None) -> None:
        """Restore every counter to its initial (or a new ``init``) state."""
        if init is not None:
            if not 0 <= init <= self._max:
                raise ValueError(f"init {init} out of range [0, {self._max}]")
            self.init = init
        self.states = [self.init] * self.size

    def fill(self, states: Iterable[int]) -> None:
        """Overwrite the table with explicit states (for tests)."""
        new = [int(s) for s in states]
        if len(new) != self.size:
            raise ValueError(f"expected {self.size} states, got {len(new)}")
        for s in new:
            if not 0 <= s <= self._max:
                raise ValueError(f"state {s} out of range [0, {self._max}]")
        self.states = new

    def as_array(self) -> np.ndarray:
        """Return a numpy copy of the counter states."""
        return np.asarray(self.states, dtype=np.uint8)

    @property
    def threshold(self) -> int:
        """Smallest state predicting taken (the sign-bit boundary)."""
        return self._threshold

    @property
    def max_state(self) -> int:
        return self._max

    def size_bits(self) -> int:
        """Hardware cost of the table in bits of counter storage."""
        return self.size * self.bits

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterTable(index_bits={self.index_bits}, bits={self.bits}, init={self.init})"
