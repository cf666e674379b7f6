"""The predictor interface.

Every predictor in this package implements :class:`BranchPredictor`:

* the **step interface** (:meth:`predict` / :meth:`update` /
  :meth:`predict_and_update`), the single scalar reference semantics of
  each scheme, convenient for unit tests and for composing predictors;
* the **batch interface** (:meth:`simulate`), which runs a whole
  :class:`~repro.traces.record.BranchTrace` and returns the per-branch
  predictions by stepping the step interface.  Fast engines live in the
  kernel registry (:mod:`repro.sim.kernels`), not in the predictors;
  bi-mode alone keeps a hand-tuned loop (see :mod:`repro.core.bimode`).

For the Section-4 analysis, :meth:`simulate_detailed` also records the
(globally unique) counter id used for every access, returning a
:class:`DetailedSimulation`.  It is one generic loop over two hooks
each predictor provides: :meth:`_counter_id` (the counter that answers
for ``pc`` at the current state) and :meth:`_num_detail_counters`.
Loops that group accesses into substreams as they run return a
:class:`SubstreamGrouping` instead, which carries the same counter
attribution without a per-access counter array.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.traces.record import BranchTrace

__all__ = [
    "BranchPredictor",
    "DetailedSimulation",
    "SimulationResult",
    "SubstreamGrouping",
]


@dataclass
class SimulationResult:
    """Outcome of running one predictor over one trace."""

    predictor_name: str
    trace_name: str
    predictions: np.ndarray  # bool, per dynamic branch
    outcomes: np.ndarray  # bool, per dynamic branch

    def __post_init__(self) -> None:
        self.predictions = np.asarray(self.predictions, dtype=bool)
        self.outcomes = np.asarray(self.outcomes, dtype=bool)
        if self.predictions.shape != self.outcomes.shape:
            raise ValueError("predictions and outcomes must have the same shape")

    @property
    def mispredicted(self) -> np.ndarray:
        return self.predictions != self.outcomes

    @property
    def num_branches(self) -> int:
        return len(self.outcomes)

    @property
    def num_mispredictions(self) -> int:
        return int(self.mispredicted.sum())

    @property
    def misprediction_rate(self) -> float:
        """Fraction of dynamic branches mispredicted (the paper's y-axis)."""
        if not self.num_branches:
            return 0.0
        return self.num_mispredictions / self.num_branches

    @property
    def accuracy(self) -> float:
        return 1.0 - self.misprediction_rate


@dataclass
class DetailedSimulation:
    """Per-access record of a simulation, for the Section-4 analysis.

    Attributes
    ----------
    counter_ids:
        For every dynamic branch, the globally-unique id of the
        second-level direction counter that supplied the prediction.
        For single-table schemes this is the table index; for bi-mode it
        is ``bank * bank_size + index`` so the two banks' counters are
        distinct "prediction counters" (as in Figure 6, which plots all
        256 direction counters of a 2x128 configuration).
    num_counters:
        Total number of distinct direction-counter ids.
    """

    result: SimulationResult
    counter_ids: np.ndarray
    num_counters: int
    pcs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.counter_ids = np.asarray(self.counter_ids, dtype=np.int64)
        if len(self.counter_ids) != self.result.num_branches:
            raise ValueError("counter_ids length must match the number of branches")
        if len(self.counter_ids) and (
            self.counter_ids.min() < 0 or self.counter_ids.max() >= self.num_counters
        ):
            raise ValueError("counter ids out of range")
        if self.pcs is not None:
            self.pcs = np.asarray(self.pcs, dtype=np.int64)
            if len(self.pcs) != self.result.num_branches:
                raise ValueError("pcs length must match the number of branches")

    @property
    def num_branches(self) -> int:
        return self.result.num_branches

    @property
    def misprediction_rate(self) -> float:
        return self.result.misprediction_rate


@dataclass
class SubstreamGrouping:
    """One detailed simulation, grouped into (counter, static branch)
    substreams while it ran — the compact alternative to a
    :class:`DetailedSimulation` for the Section-4 analysis.

    Attributes
    ----------
    access_stream:
        For every dynamic branch, the int32 id of its substream; ids
        count up from 0 in first-seen order.
    streams:
        One record per substream, indexed by id: ``key`` is
        ``counter * len(unique_pcs) + pc_code``, and ``total`` /
        ``taken`` / ``miss`` its access, taken and misprediction counts.
    unique_pcs:
        The trace's sorted distinct PCs; a pc code indexes them.
    num_counters:
        Total number of distinct direction-counter ids.
    """

    access_stream: np.ndarray
    streams: np.ndarray
    unique_pcs: np.ndarray
    num_counters: int

    @property
    def num_branches(self) -> int:
        return len(self.access_stream)

    @property
    def misprediction_rate(self) -> float:
        if self.num_branches == 0:
            return 0.0
        return int(self.streams["miss"].sum()) / self.num_branches

    @property
    def stream_counter(self) -> np.ndarray:
        """Counter id of each substream (first-seen order)."""
        return self.streams["key"].astype(np.int64) // self._key_radix

    @property
    def stream_pc_code(self) -> np.ndarray:
        """Pc code of each substream (first-seen order); it indexes
        ``unique_pcs``."""
        return self.streams["key"].astype(np.int64) % self._key_radix

    @property
    def _key_radix(self) -> int:
        return max(1, len(self.unique_pcs))

    @property
    def counter_ids(self) -> np.ndarray:
        """Per-access counter ids, as :class:`DetailedSimulation` holds them."""
        return self.stream_counter[self.access_stream]


class BranchPredictor(abc.ABC):
    """Abstract dynamic branch predictor.

    Subclasses must implement :meth:`predict`, :meth:`update`,
    :meth:`reset` and :meth:`size_bits`, and, to take part in the
    bias analysis, the attribution hooks :meth:`_counter_id` and
    :meth:`_num_detail_counters`.  The batch methods are generic loops
    over these; subclasses do not override them.
    """

    #: Short scheme name, e.g. ``"gshare"``; set by subclasses.
    scheme = "abstract"

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc`` (``True`` = taken)."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome of the branch at ``pc``.

        Must be called exactly once per executed branch, after
        :meth:`predict`, in program order.
        """

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, then train; returns the prediction.  May be overridden
        by subclasses whose update rule needs the prediction (bi-mode's
        partial update does not — it needs internal state — so such
        predictors keep the state between the two calls instead)."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction

    @abc.abstractmethod
    def reset(self) -> None:
        """Restore the power-on state (counters and history registers)."""

    @abc.abstractmethod
    def size_bits(self) -> int:
        """Total counter storage in bits (the paper's cost metric)."""

    def size_bytes(self) -> float:
        return self.size_bits() / 8.0

    @property
    def name(self) -> str:
        """Human-readable configuration name; subclasses should override."""
        return self.scheme

    # -- counter attribution (Section 4) ---------------------------------------

    def _counter_id(self, pc: int) -> int:
        """Id of the counter that supplies the prediction for ``pc`` at
        the current state, in ``[0, _num_detail_counters())``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support detailed simulation"
        )

    def _num_detail_counters(self) -> int:
        """Number of distinct counter ids :meth:`_counter_id` returns."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support detailed simulation"
        )

    # -- batch simulation -----------------------------------------------------

    def simulate(self, trace: BranchTrace) -> SimulationResult:
        """Run the whole trace from the current state; returns
        per-branch predictions.  Steps :meth:`predict_and_update` once
        per branch."""
        predictions = np.empty(len(trace), dtype=bool)
        step = self.predict_and_update
        for i, (pc, taken) in enumerate(
            zip(trace.pcs.tolist(), trace.outcomes.tolist())
        ):
            predictions[i] = step(pc, taken)
        return SimulationResult(
            predictor_name=self.name,
            trace_name=trace.name,
            predictions=predictions,
            outcomes=trace.outcomes,
        )

    def simulate_detailed(self, trace: BranchTrace) -> DetailedSimulation:
        """Like :meth:`simulate` but also records the counter that
        answered each access (read through :meth:`_counter_id` before
        the step)."""
        num_counters = self._num_detail_counters()
        predictions = np.empty(len(trace), dtype=bool)
        counter_ids = np.empty(len(trace), dtype=np.int64)
        counter_id, step = self._counter_id, self.predict_and_update
        for i, (pc, taken) in enumerate(
            zip(trace.pcs.tolist(), trace.outcomes.tolist())
        ):
            counter_ids[i] = counter_id(pc)
            predictions[i] = step(pc, taken)
        return DetailedSimulation(
            result=SimulationResult(
                predictor_name=self.name,
                trace_name=trace.name,
                predictions=predictions,
                outcomes=trace.outcomes,
            ),
            counter_ids=counter_ids,
            num_counters=num_counters,
            pcs=trace.pcs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
