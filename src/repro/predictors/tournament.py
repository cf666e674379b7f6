"""McFarling's combining (tournament) predictor [McFarling93].

Two component predictors run side by side; a *meta* table of 2-bit
counters indexed by the branch address learns, per branch, which
component to trust.  The meta counter trains only when the components
disagree, toward the component that was right (the 21264 policy).

This is the combining half of the technical note that also introduced
gshare, and a useful upper-ish baseline for the comparison benches: a
bimodal + gshare tournament captures per-address bias and global
correlation with dedicated structures, at the cost of three tables.
"""

from __future__ import annotations

from repro.core.counters import WEAKLY_TAKEN, CounterTable
from repro.core.indexing import mask
from repro.core.interfaces import BranchPredictor

__all__ = ["TournamentPredictor"]


class TournamentPredictor(BranchPredictor):
    """Meta-selected pair of component predictors.

    Parameters
    ----------
    component_a, component_b:
        Any two :class:`~repro.core.interfaces.BranchPredictor` objects.
        Meta state ``>= 2`` ("taken") selects ``component_b``.
    meta_index_bits:
        log2 of the meta table size (indexed by branch address).
    """

    scheme = "tournament"

    def __init__(
        self,
        component_a: BranchPredictor,
        component_b: BranchPredictor,
        meta_index_bits: int,
    ):
        if meta_index_bits < 0:
            raise ValueError(f"meta_index_bits must be >= 0, got {meta_index_bits}")
        self.component_a = component_a
        self.component_b = component_b
        self.meta = CounterTable(meta_index_bits, init=WEAKLY_TAKEN)
        self.meta_index_bits = meta_index_bits
        self._meta_mask = mask(meta_index_bits)

    @property
    def name(self) -> str:
        return (
            f"tournament:[{self.component_a.name}|{self.component_b.name}],"
            f"meta=2^{self.meta_index_bits}"
        )

    def size_bits(self) -> int:
        return (
            self.component_a.size_bits()
            + self.component_b.size_bits()
            + self.meta.size_bits()
        )

    def reset(self) -> None:
        self.component_a.reset()
        self.component_b.reset()
        self.meta.reset()

    def predict(self, pc: int) -> bool:
        if self.meta.predict(pc & self._meta_mask):
            return self.component_b.predict(pc)
        return self.component_a.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        prediction_a = self.component_a.predict(pc)
        prediction_b = self.component_b.predict(pc)
        # meta trains toward the correct component only on disagreement
        if prediction_a != prediction_b:
            self.meta.update(pc & self._meta_mask, prediction_b == taken)
        self.component_a.update(pc, taken)
        self.component_b.update(pc, taken)

    def _counter_id(self, pc: int) -> int:
        """The *selected* component's counter: component-a ids come
        first, component-b ids are offset by component-a's counter
        count.  Both components must provide the attribution hooks."""
        if self.meta.predict(pc & self._meta_mask):
            return self.component_a._num_detail_counters() + (
                self.component_b._counter_id(pc)
            )
        return self.component_a._counter_id(pc)

    def _num_detail_counters(self) -> int:
        return (
            self.component_a._num_detail_counters()
            + self.component_b._num_detail_counters()
        )
