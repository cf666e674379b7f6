"""The perceptron branch predictor (Jiménez & Lin, HPCA 2001).

A lineage comparison point from *after* the paper: where the bi-mode
family fights the aliasing of 2-bit-counter tables, the perceptron
changes the second level entirely — one weight vector per branch (by PC
hash), predicting with the sign of a dot product against the global
history and learning by perceptron updates.  Its strengths and
weaknesses complement bi-mode's: it scales to much longer histories
(cost grows linearly, not exponentially, in history length) but can
only learn linearly separable history functions.

Implementation follows the original recipe:

* weights are ``weight_bits``-wide saturating signed integers;
* prediction: ``y = w0 + sum_i w_i * x_i`` with ``x_i = +1`` for a
  taken history bit and ``-1`` for not-taken; predict taken iff
  ``y >= 0``;
* training (on the resolved outcome ``t = +/-1``): only when the
  prediction was wrong or ``|y| <= theta``, update ``w_i += t * x_i``
  (and the bias weight by ``t``), with the paper's threshold
  ``theta = floor(1.93 * history_bits + 14)``.

Cost accounting counts the weight storage; note it is substantially
more bits per entry than a 2-bit counter, which is exactly the
trade-off the comparison bench exposes.
"""

from __future__ import annotations

from repro.core.counters import check_index_bits
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import mask
from repro.core.interfaces import BranchPredictor

__all__ = ["PerceptronPredictor"]


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron predictor.

    Parameters
    ----------
    index_bits:
        log2 of the number of perceptrons (selected by low PC bits).
    history_bits:
        Global history length (= weights per perceptron, minus bias).
    weight_bits:
        Width of each signed weight (8 in the original paper).
    """

    scheme = "perceptron"

    def __init__(self, index_bits: int, history_bits: int = 12, weight_bits: int = 8):
        check_index_bits(index_bits)
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if weight_bits < 2:
            raise ValueError(f"weight_bits must be >= 2, got {weight_bits}")
        self.index_bits = index_bits
        self.history_bits = history_bits
        self.weight_bits = weight_bits
        self._mask = mask(index_bits)
        self._w_max = (1 << (weight_bits - 1)) - 1
        self._w_min = -(1 << (weight_bits - 1))
        self.theta = int(1.93 * history_bits + 14)
        # weights[i] = [bias, w_1 .. w_hist]
        self.weights = [
            [0] * (history_bits + 1) for _ in range(1 << index_bits)
        ]
        self.ghr = GlobalHistoryRegister(history_bits)

    @property
    def name(self) -> str:
        return (
            f"perceptron:index={self.index_bits},hist={self.history_bits},"
            f"w={self.weight_bits}"
        )

    def size_bits(self) -> int:
        return (1 << self.index_bits) * (self.history_bits + 1) * self.weight_bits

    def reset(self) -> None:
        self.weights = [
            [0] * (self.history_bits + 1) for _ in range(1 << self.index_bits)
        ]
        self.ghr.reset()

    # -- internals -------------------------------------------------------------

    def _output(self, pc: int):
        """(weight row, dot product) for the branch at ``pc``."""
        row = self.weights[pc & self._mask]
        y = row[0]
        history = self.ghr.value
        for i in range(1, self.history_bits + 1):
            if (history >> (i - 1)) & 1:
                y += row[i]
            else:
                y -= row[i]
        return row, y

    # -- step interface ----------------------------------------------------------

    def predict(self, pc: int) -> bool:
        _, y = self._output(pc)
        return y >= 0

    def _counter_id(self, pc: int) -> int:
        """The "prediction counter" of a perceptron access is its weight
        row, selected by address alone."""
        return pc & self._mask

    def _num_detail_counters(self) -> int:
        return 1 << self.index_bits

    def update(self, pc: int, taken: bool) -> None:
        row, y = self._output(pc)
        prediction = y >= 0
        if prediction != taken or abs(y) <= self.theta:
            t = 1 if taken else -1
            w_max, w_min = self._w_max, self._w_min
            row[0] = min(w_max, max(w_min, row[0] + t))
            history = self.ghr.value
            for i in range(1, self.history_bits + 1):
                x = 1 if (history >> (i - 1)) & 1 else -1
                row[i] = min(w_max, max(w_min, row[i] + t * x))
        self.ghr.push(taken)
