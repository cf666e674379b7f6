"""Bias filtering — the paper's first future-work direction, realized.

The bi-mode paper's conclusion asks for "a cost-effective way to reduce
the weakly biased substreams".  A classic answer, rooted in the branch
classification of [Chang94], is to *filter*: notice branches that are
monotonously one-directional and predict them with a tiny per-address
structure, keeping their (information-free) streams out of the
second-level tables entirely.  The dynamic predictor's capacity is then
spent only on branches that need it — the weakly biased and the
correlated — so its substreams are less diluted.

:class:`BiasFilterPredictor` wraps any sub-predictor with a per-address
filter of small run counters:

* each filter entry tracks the current *run* of identical outcomes
  (direction bit + saturating run counter);
* when the run counter is saturated, the branch is classified
  "monotone": the filter supplies the prediction and the sub-predictor
  is **not trained** (its tables never see the branch);
* any outcome flip resets the run, returning the branch to the
  sub-predictor (which also resumes training).

With a 3-bit run counter, a branch enters the filter after 7
consecutive identical outcomes and leaves it on the first deviation —
the deviation itself is mispredicted (by the filter) but the
sub-predictor stays clean.

Design note: filtered branches are hidden from the sub-predictor
*entirely*, including its history register(s) — the variant that also
removes the near-constant history bits monotone branches contribute.
"""

from __future__ import annotations

from repro.core.counters import check_index_bits
from repro.core.indexing import mask
from repro.core.interfaces import BranchPredictor

__all__ = ["BiasFilterPredictor"]


class BiasFilterPredictor(BranchPredictor):
    """Per-address monotone-branch filter in front of any predictor.

    Parameters
    ----------
    sub_predictor:
        The dynamic predictor receiving only unfiltered branches.
    filter_index_bits:
        log2 of the filter table size (indexed by branch address).
    run_bits:
        Width of each run counter; a branch is filtered once it shows
        ``2**run_bits - 1`` consecutive identical outcomes.
    """

    scheme = "biasfilter"

    def __init__(
        self,
        sub_predictor: BranchPredictor,
        filter_index_bits: int = 12,
        run_bits: int = 3,
    ):
        check_index_bits(filter_index_bits, "filter_index_bits")
        if run_bits < 1:
            raise ValueError(f"run_bits must be >= 1, got {run_bits}")
        self.sub_predictor = sub_predictor
        self.filter_index_bits = filter_index_bits
        self.run_bits = run_bits
        self._mask = mask(filter_index_bits)
        self._max_run = (1 << run_bits) - 1
        size = 1 << filter_index_bits
        self.directions = [False] * size
        self.runs = [0] * size

    @property
    def name(self) -> str:
        return (
            f"biasfilter:table=2^{self.filter_index_bits},run={self.run_bits}"
            f"[{self.sub_predictor.name}]"
        )

    def size_bits(self) -> int:
        """Sub-predictor counters plus filter state (1 + run_bits each)."""
        return self.sub_predictor.size_bits() + (
            (1 << self.filter_index_bits) * (1 + self.run_bits)
        )

    def reset(self) -> None:
        self.sub_predictor.reset()
        size = 1 << self.filter_index_bits
        self.directions = [False] * size
        self.runs = [0] * size

    def is_filtered(self, pc: int) -> bool:
        """Whether the branch is currently classified monotone."""
        return self.runs[pc & self._mask] >= self._max_run

    def predict(self, pc: int) -> bool:
        slot = pc & self._mask
        if self.runs[slot] >= self._max_run:
            return self.directions[slot]
        return self.sub_predictor.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & self._mask
        run = self.runs[slot]
        filtered = run >= self._max_run

        # the sub-predictor only sees (and trains on) unfiltered branches
        if not filtered:
            self.sub_predictor.update(pc, taken)

        if run == 0 or self.directions[slot] != taken:
            self.directions[slot] = taken
            self.runs[slot] = 1
        elif run < self._max_run:
            self.runs[slot] = run + 1

    def _counter_id(self, pc: int) -> int:
        """Counter-id layout: the filter slots first, then the
        sub-predictor's counters offset by the filter size.  A filtered
        access attributes its prediction to the filter entry that
        answered; an unfiltered one to the sub-predictor counter."""
        slot = pc & self._mask
        if self.runs[slot] >= self._max_run:
            return slot
        return (1 << self.filter_index_bits) + self.sub_predictor._counter_id(pc)

    def _num_detail_counters(self) -> int:
        return (1 << self.filter_index_bits) + (
            self.sub_predictor._num_detail_counters()
        )
