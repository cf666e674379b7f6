"""The bi-mode branch predictor (the paper's contribution, Section 2.2).

Structure (paper Figure 1):

* **Direction predictors** — the second-level table split into two
  banks of 2-bit counters, a *taken bank* and a *not-taken bank*.  Both
  banks are indexed with the gshare hash of the branch PC and the
  global history (``m`` history bits xor-ed into an ``n``-bit index,
  ``m <= n``).
* **Choice predictor** — a 2-bit counter table indexed by the branch
  address only.  Its prediction selects which bank supplies the final
  prediction: choice-taken selects the taken bank.

Update policy (the *partial update* of Section 2.2):

* only the **selected** direction counter is trained with the outcome;
  the counter in the unselected bank is untouched;
* the choice predictor is always trained with the outcome, **except**
  when its choice disagreed with the outcome but the selected direction
  counter still predicted correctly — then it is left alone.

Initialization follows the paper's footnote 2: choice counters start
weakly-taken, the taken bank weakly-taken and the not-taken bank
weakly-not-taken.

The intuition: the choice predictor captures each static branch's bias,
steering its history-indexed substreams into the bank that matches the
bias.  Branches of opposite bias that alias to the same direction-table
index therefore land in *different* banks — the destructive aliasing of
plain gshare becomes neutral or constructive aliasing, while history
correlation within a bias group is still exploited.

Two ablation knobs are provided beyond the paper's design (both default
to the paper's choices): ``full_update`` trains both banks instead of
the selected one, and ``choice_uses_history`` indexes the choice
predictor with the gshare hash instead of the address alone.

Bi-mode is the one scheme that keeps a hand-tuned :meth:`simulate`
loop next to its step interface.  The bank/choice coupling has no
numpy form, so without a C compiler (``REPRO_NO_CC=1``, or the numpy
pin) every bi-mode rate in a sweep runs this loop, and it is 4-7x
faster than stepping ``predict``/``update``.  Detailed simulation uses
the generic step loop like every other scheme.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import WEAKLY_NOT_TAKEN, WEAKLY_TAKEN, CounterTable
from repro.core.history import GlobalHistoryRegister, global_history_stream
from repro.core.indexing import gshare_index, gshare_index_stream, mask
from repro.core.interfaces import BranchPredictor, SimulationResult
from repro.traces.record import BranchTrace

__all__ = ["BiModePredictor"]


class BiModePredictor(BranchPredictor):
    """The bi-mode predictor of Lee, Chen & Mudge (MICRO-30, 1997).

    Parameters
    ----------
    direction_index_bits:
        log2 of the size of *each* direction bank (``n``).
    history_bits:
        Global history length xor-ed into the direction index
        (``m <= n``).  Defaults to ``direction_index_bits`` (all index
        bits hashed with history).
    choice_index_bits:
        log2 of the choice predictor size (``c``).  Defaults to
        ``direction_index_bits``, the configuration of the paper's
        Figure 6 (a 128-counter choice predictor with two 128-counter
        direction banks), making total cost 1.5x a gshare with one
        direction bank's worth of extra counters.
    full_update:
        Ablation: train the counter in *both* banks (the paper trains
        only the selected one).
    choice_uses_history:
        Ablation: index the choice predictor with ``pc ^ history``
        instead of the branch address alone.
    """

    scheme = "bimode"

    def __init__(
        self,
        direction_index_bits: int,
        history_bits: int | None = None,
        choice_index_bits: int | None = None,
        full_update: bool = False,
        choice_uses_history: bool = False,
    ):
        if direction_index_bits < 0:
            raise ValueError(f"direction_index_bits must be >= 0, got {direction_index_bits}")
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
        self.full_update = full_update
        self.choice_uses_history = choice_uses_history

        self.not_taken_bank = CounterTable(direction_index_bits, init=WEAKLY_NOT_TAKEN)
        self.taken_bank = CounterTable(direction_index_bits, init=WEAKLY_TAKEN)
        self.choice = CounterTable(choice_index_bits, init=WEAKLY_TAKEN)
        self.ghr = GlobalHistoryRegister(history_bits)

    # -- configuration ----------------------------------------------------------

    @property
    def name(self) -> str:
        parts = [
            f"dir=2x2^{self.direction_index_bits}",
            f"hist={self.history_bits}",
            f"choice=2^{self.choice_index_bits}",
        ]
        if self.full_update:
            parts.append("full_update")
        if self.choice_uses_history:
            parts.append("choice_hist")
        return "bimode:" + ",".join(parts)

    def size_bits(self) -> int:
        return (
            self.not_taken_bank.size_bits()
            + self.taken_bank.size_bits()
            + self.choice.size_bits()
        )

    @property
    def bank_size(self) -> int:
        """Counters per direction bank."""
        return self.taken_bank.size

    def reset(self) -> None:
        self.not_taken_bank.reset()
        self.taken_bank.reset()
        self.choice.reset()
        self.ghr.reset()

    # -- internal helpers ---------------------------------------------------------

    def _choice_index(self, pc: int) -> int:
        if self.choice_uses_history:
            return gshare_index(pc, self.ghr.value, self.choice_index_bits, min(self.history_bits, self.choice_index_bits))
        return pc & mask(self.choice_index_bits)

    def _direction_index(self, pc: int) -> int:
        return gshare_index(pc, self.ghr.value, self.direction_index_bits, self.history_bits)

    # -- step interface -------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        choice_taken = self.choice.predict(self._choice_index(pc))
        bank = self.taken_bank if choice_taken else self.not_taken_bank
        return bank.predict(self._direction_index(pc))

    def _counter_id(self, pc: int) -> int:
        """The selected bank's counter; taken-bank ids are offset by
        the bank size."""
        di = self._direction_index(pc)
        if self.choice.predict(self._choice_index(pc)):
            return di + self.bank_size
        return di

    def _num_detail_counters(self) -> int:
        return 2 * self.bank_size

    def update(self, pc: int, taken: bool) -> None:
        choice_index = self._choice_index(pc)
        direction_index = self._direction_index(pc)
        choice_taken = self.choice.predict(choice_index)
        selected = self.taken_bank if choice_taken else self.not_taken_bank
        final_prediction = selected.predict(direction_index)

        # Direction banks: partial update — only the selected counter.
        selected.update(direction_index, taken)
        if self.full_update:
            other = self.not_taken_bank if choice_taken else self.taken_bank
            other.update(direction_index, taken)

        # Choice predictor: always trained, except when it chose wrongly
        # but the selected counter still produced a correct prediction.
        if not (choice_taken != taken and final_prediction == taken):
            self.choice.update(choice_index, taken)

        self.ghr.push(taken)

    # -- batch interface --------------------------------------------------------------

    def simulate(self, trace: BranchTrace) -> SimulationResult:
        predictions = self._run(trace)
        return SimulationResult(
            predictor_name=self.name,
            trace_name=trace.name,
            predictions=predictions,
            outcomes=trace.outcomes,
        )

    def _run(self, trace: BranchTrace) -> np.ndarray:
        """Tight simulation loop, bit-identical to the step interface.

        The global history stream and both index streams depend only on
        trace outcomes, so they are precomputed vectorized; the loop
        handles only the sequential counter state.
        """
        n = len(trace)
        histories = global_history_stream(
            trace.outcomes, self.history_bits, initial=self.ghr.value
        )
        direction_idx = gshare_index_stream(
            trace.pcs, histories, self.direction_index_bits, self.history_bits
        ).tolist()
        if self.choice_uses_history:
            choice_idx = gshare_index_stream(
                trace.pcs,
                histories,
                self.choice_index_bits,
                min(self.history_bits, self.choice_index_bits),
            ).tolist()
        else:
            choice_idx = (trace.pcs & mask(self.choice_index_bits)).tolist()
        outcomes = trace.outcomes.tolist()

        choice_states = self.choice.states
        taken_states = self.taken_bank.states
        not_taken_states = self.not_taken_bank.states
        full_update = self.full_update
        predictions = bytearray()
        predict = predictions.append

        for ci, di, taken in zip(choice_idx, direction_idx, outcomes):
            choice_state = choice_states[ci]
            choice_taken = choice_state >= 2
            if choice_taken:
                dir_state = taken_states[di]
            else:
                dir_state = not_taken_states[di]
            final = dir_state >= 2
            predict(final)

            # train the selected direction counter, then the choice
            # predictor unless it chose wrongly but the selected counter
            # still predicted right (the partial-update exception)
            if taken:
                if dir_state < 3:
                    if choice_taken:
                        taken_states[di] = dir_state + 1
                    else:
                        not_taken_states[di] = dir_state + 1
                if choice_state < 3 and (choice_taken or not final):
                    choice_states[ci] = choice_state + 1
            else:
                if dir_state > 0:
                    if choice_taken:
                        taken_states[di] = dir_state - 1
                    else:
                        not_taken_states[di] = dir_state - 1
                if choice_state > 0 and (final or not choice_taken):
                    choice_states[ci] = choice_state - 1

            if full_update:
                if choice_taken:
                    other_state = not_taken_states[di]
                else:
                    other_state = taken_states[di]
                if taken:
                    if other_state < 3:
                        other_state += 1
                elif other_state > 0:
                    other_state -= 1
                if choice_taken:
                    not_taken_states[di] = other_state
                else:
                    taken_states[di] = other_state

        # bring the scalar GHR up to date so step/batch interleaving stays consistent
        if n and self.history_bits:
            for taken in outcomes[-self.history_bits:]:
                self.ghr.push(taken)
        return np.frombuffer(predictions, dtype=bool)
