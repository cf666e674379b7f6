"""Static (non-adaptive) predictors [Smith81, FisherFreudenberger92].

These cost no counter storage and serve as floors/sanity baselines:

* :class:`AlwaysTakenPredictor` / :class:`AlwaysNotTakenPredictor` —
  fixed direction.
* :class:`BTFNTPredictor` — *backward taken, forward not-taken*: the
  classic static heuristic exploiting that backward branches are mostly
  loop back-edges.  Needs the branch target to know the direction; the
  trace substrate stores only PCs, so the heuristic is parameterized by
  a ``backward`` PC-classifier callable (the workload generator marks
  loop back-edges with odd word addresses by convention, which the
  default classifier uses).
"""

from __future__ import annotations

from typing import Callable

from repro.core.interfaces import BranchPredictor

__all__ = [
    "AlwaysTakenPredictor",
    "AlwaysNotTakenPredictor",
    "BTFNTPredictor",
]


class _FixedPredictor(BranchPredictor):
    """Common machinery for direction-constant predictors."""

    _direction: bool = True

    def predict(self, pc: int) -> bool:
        return self._direction

    def update(self, pc: int, taken: bool) -> None:
        pass

    def reset(self) -> None:
        pass

    def size_bits(self) -> int:
        return 0

    def _counter_id(self, pc: int) -> int:
        """One virtual "counter" — the hardwired direction."""
        return 0

    def _num_detail_counters(self) -> int:
        return 1


class AlwaysTakenPredictor(_FixedPredictor):
    """Predict every branch taken."""

    scheme = "always-taken"
    _direction = True

    @property
    def name(self) -> str:
        return self.scheme


class AlwaysNotTakenPredictor(_FixedPredictor):
    """Predict every branch not-taken."""

    scheme = "always-not-taken"
    _direction = False

    @property
    def name(self) -> str:
        return self.scheme


def _default_backward_classifier(pc: int) -> bool:
    """Workload-generator convention: loop back-edges get odd word addresses."""
    return bool(pc & 1)


class BTFNTPredictor(BranchPredictor):
    """Backward-taken / forward-not-taken static heuristic.

    Parameters
    ----------
    backward:
        Callable classifying a branch PC as a backward branch.  Defaults
        to the workload-generator convention (odd word address ⇒
        backward loop edge).
    """

    scheme = "btfnt"

    def __init__(self, backward: Callable[[int], bool] = _default_backward_classifier):
        self._backward = backward

    @property
    def name(self) -> str:
        return self.scheme

    def predict(self, pc: int) -> bool:
        return self._backward(pc)

    def update(self, pc: int, taken: bool) -> None:
        pass

    def reset(self) -> None:
        pass

    def size_bits(self) -> int:
        return 0

    def _counter_id(self, pc: int) -> int:
        """Two virtual "counters": 0 = forward rule, 1 = backward rule."""
        return int(self._backward(pc))

    def _num_detail_counters(self) -> int:
        return 2
