"""Pure-Python reference oracle for every registered predictor.

The oracle exists to catch bugs in the other implementations — the
predictors' step interfaces (and bi-mode's hand-tuned ``simulate``
loop) and the batched kernels — so it deliberately shares no simulation machinery with them:
state lives in plain dicts and ints, every update is written as the
obvious transliteration of the scheme's published rule, and nothing is
vectorized.  Slow and boring is the point; if the oracle and an engine
disagree, believe the oracle first.

Geometry (table sizes, history lengths, default knob values) is read
off the predictor object the registry builds, so a spec string means
exactly the same configuration here as everywhere else; only the
*behaviour* is re-derived.

Per-scheme semantics are documented on each ``_O*`` class.  All 2-bit
counters move one step toward the outcome and saturate at 0 / 3;
``predict`` is ``state >= 2`` (``state >= 2**(bits-1)`` for the wider
ablation counters).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.registry import make_predictor
from repro.traces.record import BranchTrace

__all__ = [
    "oracle_predictions",
    "oracle_detailed",
    "oracle_rate",
    "oracle_supports",
    "oracle_supports_detailed",
]


def _mask(bits: int) -> int:
    return (1 << bits) - 1


def _train(state: int, taken: bool, maximum: int = 3) -> int:
    """One saturating-counter step toward the outcome."""
    if taken:
        return state + 1 if state < maximum else state
    return state - 1 if state > 0 else state


def _gshare(pc: int, history: int, index_bits: int, history_bits: int) -> int:
    """Address XOR history, both truncated to their widths."""
    return (pc & _mask(index_bits)) ^ (history & _mask(history_bits))


class _Ghr:
    """Global history shift register, newest outcome in the LSB."""

    def __init__(self, bits: int):
        self.bits = bits
        self.value = 0

    def push(self, taken: bool) -> None:
        self.value = ((self.value << 1) | (1 if taken else 0)) & _mask(self.bits)


class _OBimode:
    """Bi-mode (Lee/Chen/Mudge): choice-selected direction banks.

    Taken bank starts weakly taken, not-taken bank weakly not-taken,
    choice weakly taken.  Only the selected bank trains (both under the
    ``full_update`` ablation); the choice counter trains except when it
    picked the wrong bank but the selected counter was right anyway.
    """

    def __init__(self, p):
        self.dir_bits = p.direction_index_bits
        self.hist_bits = p.history_bits
        self.choice_bits = p.choice_index_bits
        self.full_update = p.full_update
        self.choice_uses_history = p.choice_uses_history
        self.nt: Dict[int, int] = {}
        self.tk: Dict[int, int] = {}
        self.choice: Dict[int, int] = {}
        self.ghr = _Ghr(self.hist_bits)

    def _indices(self, pc: int):
        di = _gshare(pc, self.ghr.value, self.dir_bits, self.hist_bits)
        if self.choice_uses_history:
            ci = _gshare(
                pc,
                self.ghr.value,
                self.choice_bits,
                min(self.hist_bits, self.choice_bits),
            )
        else:
            ci = pc & _mask(self.choice_bits)
        return ci, di

    def predict(self, pc: int) -> bool:
        ci, di = self._indices(pc)
        if self.choice.get(ci, 2) >= 2:
            return self.tk.get(di, 2) >= 2
        return self.nt.get(di, 1) >= 2

    def counter_id(self, pc: int) -> int:
        """The selected direction counter's global id (Section-4
        attribution): taken-bank entries occupy the upper half."""
        ci, di = self._indices(pc)
        if self.choice.get(ci, 2) >= 2:
            return di + (1 << self.dir_bits)
        return di

    def _num_counters(self) -> int:
        return 2 << self.dir_bits

    def update(self, pc: int, taken: bool) -> None:
        ci, di = self._indices(pc)
        cs = self.choice.get(ci, 2)
        choice_taken = cs >= 2
        bank, init = (self.tk, 2) if choice_taken else (self.nt, 1)
        ds = bank.get(di, init)
        final = ds >= 2
        bank[di] = _train(ds, taken)
        if self.full_update:
            other, other_init = (self.nt, 1) if choice_taken else (self.tk, 2)
            other[di] = _train(other.get(di, other_init), taken)
        if not (choice_taken != taken and final == taken):
            self.choice[ci] = _train(cs, taken)
        self.ghr.push(taken)


class _OGShare:
    """gshare [McFarling93]: one PHT indexed by pc XOR global history."""

    def __init__(self, p):
        self.index_bits = p.index_bits
        self.hist_bits = p.history_bits
        self.table: Dict[int, int] = {}
        self.ghr = _Ghr(self.hist_bits)

    def predict(self, pc: int) -> bool:
        return self.table.get(_gshare(pc, self.ghr.value, self.index_bits, self.hist_bits), 2) >= 2

    def counter_id(self, pc: int) -> int:
        """The accessed PHT slot (Section-4 attribution)."""
        return _gshare(pc, self.ghr.value, self.index_bits, self.hist_bits)

    def _num_counters(self) -> int:
        return 1 << self.index_bits

    def update(self, pc: int, taken: bool) -> None:
        index = _gshare(pc, self.ghr.value, self.index_bits, self.hist_bits)
        self.table[index] = _train(self.table.get(index, 2), taken)
        self.ghr.push(taken)


class _OBimodal:
    """Per-address counters [Smith81]; width-parameterized for ablations."""

    def __init__(self, p):
        self.index_bits = p.index_bits
        self.bits = p.table.bits
        self.init = 1 << (self.bits - 1)
        self.maximum = (1 << self.bits) - 1
        self.table: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        return self.table.get(pc & _mask(self.index_bits), self.init) >= self.init

    def counter_id(self, pc: int) -> int:
        """The accessed per-address counter (Section-4 attribution)."""
        return pc & _mask(self.index_bits)

    def _num_counters(self) -> int:
        return 1 << self.index_bits

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & _mask(self.index_bits)
        self.table[slot] = _train(self.table.get(slot, self.init), taken, self.maximum)


class _OTwoLevel:
    """The Yeh/Patt two-level family (GAg/GAs/GAp/PAg/PAs/PAp/gselect).

    PHT index = (pc's select bits) concatenated above the history; the
    history source is either one global register or a per-address table
    of registers.  History pushes *after* the counter update.
    """

    def __init__(self, p):
        self.hist_bits = p.history_bits
        self.select_bits = p.pht_select_bits
        self.per_address = p.per_address
        self.bht_index_bits = p.bht.index_bits if p.per_address else 0
        self.table: Dict[int, int] = {}
        self.ghr = _Ghr(self.hist_bits)
        self.bht: Dict[int, int] = {}

    def _history(self, pc: int) -> int:
        if self.per_address:
            return self.bht.get(pc & _mask(self.bht_index_bits), 0)
        return self.ghr.value

    def _index(self, pc: int) -> int:
        return ((pc & _mask(self.select_bits)) << self.hist_bits) | (
            self._history(pc) & _mask(self.hist_bits)
        )

    def predict(self, pc: int) -> bool:
        return self.table.get(self._index(pc), 2) >= 2

    def counter_id(self, pc: int) -> int:
        """The accessed PHT slot (Section-4 attribution)."""
        return self._index(pc)

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        self.table[index] = _train(self.table.get(index, 2), taken)
        if self.per_address:
            slot = pc & _mask(self.bht_index_bits)
            self.bht[slot] = ((self.bht.get(slot, 0) << 1) | (1 if taken else 0)) & _mask(
                self.hist_bits
            )
        else:
            self.ghr.push(taken)


class _OPerceptron:
    """Perceptron predictor [JimenezLin01]: signed dot product of history
    with per-branch weights; trains on mispredict or |y| <= theta."""

    def __init__(self, p):
        self.index_bits = p.index_bits
        self.hist_bits = p.history_bits
        self.theta = int(1.93 * self.hist_bits + 14)
        self.w_max = (1 << (p.weight_bits - 1)) - 1
        self.w_min = -(1 << (p.weight_bits - 1))
        self.weights: Dict[int, List[int]] = {}
        self.ghr = _Ghr(self.hist_bits)

    def _row(self, pc: int) -> List[int]:
        slot = pc & _mask(self.index_bits)
        if slot not in self.weights:
            self.weights[slot] = [0] * (self.hist_bits + 1)
        return self.weights[slot]

    def _output(self, pc: int):
        row = self._row(pc)
        y = row[0]
        for i in range(1, self.hist_bits + 1):
            if (self.ghr.value >> (i - 1)) & 1:
                y += row[i]
            else:
                y -= row[i]
        return row, y

    def predict(self, pc: int) -> bool:
        return self._output(pc)[1] >= 0

    def counter_id(self, pc: int) -> int:
        """The accessed weight row (Section-4 attribution)."""
        return pc & _mask(self.index_bits)

    def update(self, pc: int, taken: bool) -> None:
        row, y = self._output(pc)
        if (y >= 0) != taken or abs(y) <= self.theta:
            t = 1 if taken else -1
            row[0] = min(self.w_max, max(self.w_min, row[0] + t))
            for i in range(1, self.hist_bits + 1):
                x = 1 if (self.ghr.value >> (i - 1)) & 1 else -1
                row[i] = min(self.w_max, max(self.w_min, row[i] + t * x))
        self.ghr.push(taken)


class _OAgree:
    """Agree predictor [Sprangle+97]: PHT counters vote agree/disagree
    with a per-branch biasing bit set on first dynamic occurrence."""

    def __init__(self, p):
        self.index_bits = p.index_bits
        self.hist_bits = p.history_bits
        self.bias_bits_width = p.bias_index_bits
        self.table: Dict[int, int] = {}
        self.bias: Dict[int, bool] = {}
        self.ghr = _Ghr(self.hist_bits)

    def predict(self, pc: int) -> bool:
        index = _gshare(pc, self.ghr.value, self.index_bits, self.hist_bits)
        agree = self.table.get(index, 2) >= 2
        bias = self.bias.get(pc & _mask(self.bias_bits_width), False)
        return bias == agree

    def counter_id(self, pc: int) -> int:
        """The accessed agree-PHT slot (Section-4 attribution)."""
        return _gshare(pc, self.ghr.value, self.index_bits, self.hist_bits)

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & _mask(self.bias_bits_width)
        if slot not in self.bias:
            self.bias[slot] = taken
        agreed = self.bias[slot] == taken
        index = _gshare(pc, self.ghr.value, self.index_bits, self.hist_bits)
        self.table[index] = _train(self.table.get(index, 2), agreed)
        self.ghr.push(taken)


class _OGSkew:
    """(Enhanced) gskew [MichaudSeznecUhlig97]: three banks under
    rotation-decorrelated hashes, majority vote, partial update."""

    def __init__(self, p):
        self.bank_bits = p.bank_index_bits
        self.hist_bits = p.history_bits
        self.enhanced = p.update_policy == "enhanced"
        self.banks: List[Dict[int, int]] = [{}, {}, {}]
        self.ghr = _Ghr(self.hist_bits)

    def _rotate(self, value: int, amount: int) -> int:
        bits = self.bank_bits
        if bits == 0:
            return 0
        amount %= bits
        value &= _mask(bits)
        return ((value << amount) | (value >> (bits - amount))) & _mask(bits)

    def _indices(self, pc: int):
        bits = self.bank_bits
        pc_lo = pc & _mask(bits)
        pc_hi = (pc >> bits) & _mask(bits)
        hist = self.ghr.value & _mask(bits) if bits else 0
        i0 = pc_lo ^ self._rotate(hist, 0)
        i1 = self._rotate(pc_lo, 1) ^ self._rotate(hist, bits // 2) ^ pc_hi
        i2 = (
            self._rotate(pc_lo, 2)
            ^ self._rotate(hist, (2 * bits) // 3)
            ^ self._rotate(pc_hi, 1)
        )
        return i0, i1, i2

    def predict(self, pc: int) -> bool:
        votes = sum(
            bank.get(index, 2) >= 2
            for bank, index in zip(self.banks, self._indices(pc))
        )
        return votes >= 2

    def counter_id(self, pc: int) -> int:
        """The first (lowest-numbered) bank whose vote equals the
        majority — the counter the prediction is attributed to; bank
        ``k`` occupies ids ``[k * bank_size, (k + 1) * bank_size)``."""
        indices = self._indices(pc)
        votes = [
            bank.get(index, 2) >= 2 for bank, index in zip(self.banks, indices)
        ]
        majority = sum(votes) >= 2
        for k, (voted, index) in enumerate(zip(votes, indices)):
            if voted == majority:
                return k * (1 << self.bank_bits) + index
        raise AssertionError("unreachable: majority always has a voter")

    def update(self, pc: int, taken: bool) -> None:
        indices = self._indices(pc)
        votes = [
            bank.get(index, 2) >= 2 for bank, index in zip(self.banks, indices)
        ]
        majority = sum(votes) >= 2
        for bank, index, voted in zip(self.banks, indices, votes):
            if not self.enhanced or majority != taken or voted == majority:
                bank[index] = _train(bank.get(index, 2), taken)
        self.ghr.push(taken)


class _OYags:
    """YAGS [EdenMudge98]: bimodal choice bias plus two tagged caches
    holding only the exceptions to the bias."""

    def __init__(self, p):
        self.choice_bits = p.choice_index_bits
        self.cache_bits = p.cache_index_bits
        self.hist_bits = p.history_bits
        self.tag_bits = p.tag_bits
        self.choice: Dict[int, int] = {}
        # each cache: index -> (tag, counter)
        self.taken_cache: Dict[int, tuple] = {}
        self.not_taken_cache: Dict[int, tuple] = {}
        self.ghr = _Ghr(self.hist_bits)

    def _probe(self, pc: int):
        bias = self.choice.get(pc & _mask(self.choice_bits), 2) >= 2
        cache = self.not_taken_cache if bias else self.taken_cache
        index = _gshare(pc, self.ghr.value, self.cache_bits, self.hist_bits)
        tag = (pc >> self.cache_bits) & _mask(self.tag_bits)
        entry = cache.get(index)
        hit = entry[1] if entry is not None and entry[0] == tag else None
        return bias, cache, index, tag, hit

    def predict(self, pc: int) -> bool:
        bias, _cache, _index, _tag, hit = self._probe(pc)
        return bias if hit is None else hit >= 2

    def counter_id(self, pc: int) -> int:
        """Layout: choice table, then the taken cache, then the
        not-taken cache.  Cache hit → the hitting entry; miss → the
        choice counter that supplied the bias."""
        bias, _cache, index, _tag, hit = self._probe(pc)
        if hit is None:
            return pc & _mask(self.choice_bits)
        offset = (1 << self.choice_bits) + ((1 << self.cache_bits) if bias else 0)
        return offset + index

    def update(self, pc: int, taken: bool) -> None:
        bias, cache, index, tag, hit = self._probe(pc)
        final = bias if hit is None else hit >= 2
        if taken != bias or hit is not None:
            if hit is None:
                cache[index] = (tag, 2 if taken else 1)
            else:
                cache[index] = (tag, _train(hit, taken))
        if not (bias != taken and final == taken):
            slot = pc & _mask(self.choice_bits)
            self.choice[slot] = _train(self.choice.get(slot, 2), taken)
        self.ghr.push(taken)


class _OTournament:
    """McFarling combining predictor: a per-address meta counter picks
    between two component predictors; the meta trains only when the
    components disagree, toward whichever was right."""

    def __init__(self, p):
        self.a = _oracle_for(p.component_a)
        self.b = _oracle_for(p.component_b)
        self.meta_bits = p.meta_index_bits
        self.meta: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        if self.meta.get(pc & _mask(self.meta_bits), 2) >= 2:
            return self.b.predict(pc)
        return self.a.predict(pc)

    def counter_id(self, pc: int) -> int:
        """The *selected* component's counter; component-b ids are
        offset by component-a's counter count."""
        if self.meta.get(pc & _mask(self.meta_bits), 2) >= 2:
            return self.a._num_counters() + self.b.counter_id(pc)
        return self.a.counter_id(pc)

    def update(self, pc: int, taken: bool) -> None:
        prediction_a = self.a.predict(pc)
        prediction_b = self.b.predict(pc)
        if prediction_a != prediction_b:
            slot = pc & _mask(self.meta_bits)
            self.meta[slot] = _train(self.meta.get(slot, 2), prediction_b == taken)
        self.a.update(pc, taken)
        self.b.update(pc, taken)


class _OTriMode:
    """Tri-mode: bi-mode generalized to taken / not-taken / weak banks,
    selected by the choice counter's strong/weak classification."""

    def __init__(self, p):
        self.dir_bits = p.direction_index_bits
        self.hist_bits = p.history_bits
        self.choice_bits = p.choice_index_bits
        # bank id 0 = not-taken (init 1), 1 = taken (init 2), 2 = weak (init 2)
        self.banks: List[Dict[int, int]] = [{}, {}, {}]
        self.bank_init = [1, 2, 2]
        self.choice: Dict[int, int] = {}
        self.ghr = _Ghr(self.hist_bits)

    @staticmethod
    def _bank_of(choice_state: int) -> int:
        if choice_state == 3:
            return 1
        if choice_state == 0:
            return 0
        return 2

    def predict(self, pc: int) -> bool:
        cs = self.choice.get(pc & _mask(self.choice_bits), 2)
        bank_id = self._bank_of(cs)
        di = _gshare(pc, self.ghr.value, self.dir_bits, self.hist_bits)
        return self.banks[bank_id].get(di, self.bank_init[bank_id]) >= 2

    def counter_id(self, pc: int) -> int:
        """The selected direction counter: bank ``b`` occupies ids
        ``[b * bank_size, (b + 1) * bank_size)`` (not-taken, taken,
        weak)."""
        cs = self.choice.get(pc & _mask(self.choice_bits), 2)
        bank_id = self._bank_of(cs)
        di = _gshare(pc, self.ghr.value, self.dir_bits, self.hist_bits)
        return bank_id * (1 << self.dir_bits) + di

    def update(self, pc: int, taken: bool) -> None:
        ci = pc & _mask(self.choice_bits)
        di = _gshare(pc, self.ghr.value, self.dir_bits, self.hist_bits)
        cs = self.choice.get(ci, 2)
        bank_id = self._bank_of(cs)
        bank = self.banks[bank_id]
        ds = bank.get(di, self.bank_init[bank_id])
        final = ds >= 2
        bank[di] = _train(ds, taken)
        if not ((cs >= 2) != taken and final == taken):
            self.choice[ci] = _train(cs, taken)
        self.ghr.push(taken)


class _OBiasFilter:
    """Bias filter: per-address monotone-run detector; once a branch's
    run saturates the filter answers and the sub-predictor is bypassed
    (and not trained, so its history skips filtered branches too)."""

    def __init__(self, p):
        self.sub = _oracle_for(p.sub_predictor)
        self.filter_bits = p.filter_index_bits
        self.max_run = (1 << p.run_bits) - 1
        self.directions: Dict[int, bool] = {}
        self.runs: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        slot = pc & _mask(self.filter_bits)
        if self.runs.get(slot, 0) >= self.max_run:
            return self.directions.get(slot, False)
        return self.sub.predict(pc)

    def counter_id(self, pc: int) -> int:
        """Filter slots first, then the sub-predictor's counters offset
        by the filter size."""
        slot = pc & _mask(self.filter_bits)
        if self.runs.get(slot, 0) >= self.max_run:
            return slot
        return (1 << self.filter_bits) + self.sub.counter_id(pc)

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & _mask(self.filter_bits)
        run = self.runs.get(slot, 0)
        if run < self.max_run:
            self.sub.update(pc, taken)
        if run == 0 or self.directions.get(slot, False) != taken:
            self.directions[slot] = taken
            self.runs[slot] = 1
        elif run < self.max_run:
            self.runs[slot] = run + 1


class _OStatic:
    """always-taken / always-not-taken / btfnt (odd word address =
    backward loop edge by the workload generator's convention)."""

    def __init__(self, scheme: str):
        self.scheme = scheme

    def predict(self, pc: int) -> bool:
        if self.scheme == "btfnt":
            return bool(pc & 1)
        return self.scheme == "always-taken"

    def counter_id(self, pc: int) -> int:
        """btfnt: 0 = forward rule, 1 = backward rule; the fixed
        predictors have a single virtual counter."""
        if self.scheme == "btfnt":
            return int(pc & 1)
        return 0

    def update(self, pc: int, taken: bool) -> None:
        pass


def _oracle_for(predictor):
    """Oracle instance mirroring an already-built predictor object."""
    name = type(predictor).__name__
    if name == "BiModePredictor":
        return _OBimode(predictor)
    if name == "GSharePredictor":
        return _OGShare(predictor)
    if name == "BimodalPredictor":
        return _OBimodal(predictor)
    if name in (
        "GAgPredictor",
        "GAsPredictor",
        "GApPredictor",
        "GSelectPredictor",
        "PAgPredictor",
        "PAsPredictor",
        "PApPredictor",
        "TwoLevelPredictor",
    ):
        return _OTwoLevel(predictor)
    if name == "PerceptronPredictor":
        return _OPerceptron(predictor)
    if name == "AgreePredictor":
        return _OAgree(predictor)
    if name == "GSkewPredictor":
        return _OGSkew(predictor)
    if name == "YagsPredictor":
        return _OYags(predictor)
    if name == "TournamentPredictor":
        return _OTournament(predictor)
    if name == "TriModePredictor":
        return _OTriMode(predictor)
    if name == "BiasFilterPredictor":
        return _OBiasFilter(predictor)
    if name == "AlwaysTakenPredictor":
        return _OStatic("always-taken")
    if name == "AlwaysNotTakenPredictor":
        return _OStatic("always-not-taken")
    if name == "BTFNTPredictor":
        return _OStatic("btfnt")
    raise NotImplementedError(f"no oracle for predictor type {name}")


def oracle_supports(spec: str) -> bool:
    """Whether the oracle models this spec's scheme."""
    try:
        _oracle_for(make_predictor(spec))
    except NotImplementedError:
        return False
    return True


def oracle_predictions(spec: str, trace: BranchTrace) -> np.ndarray:
    """Per-branch predictions of ``spec`` from power-on state, slowly."""
    oracle = _oracle_for(make_predictor(spec))
    predictions = np.empty(len(trace), dtype=bool)
    for i, (pc, taken) in enumerate(
        zip(trace.pcs.tolist(), trace.outcomes.tolist())
    ):
        predictions[i] = oracle.predict(int(pc))
        oracle.update(int(pc), bool(taken))
    return predictions


def oracle_supports_detailed(spec: str) -> bool:
    """Whether the oracle can also attribute accesses to counter ids."""
    try:
        oracle = _oracle_for(make_predictor(spec))
    except NotImplementedError:
        return False
    return hasattr(oracle, "counter_id")


def oracle_detailed(spec: str, trace: BranchTrace):
    """Per-branch ``(predictions, counter_ids)`` of ``spec``, slowly.

    The counter-id convention matches the fast implementations'
    ``simulate_detailed``: for gshare the accessed PHT slot, for bi-mode
    the selected direction counter with taken-bank ids offset by the
    bank size.  Only schemes whose oracle exposes ``counter_id`` are
    supported (see :func:`oracle_supports_detailed`).
    """
    oracle = _oracle_for(make_predictor(spec))
    if not hasattr(oracle, "counter_id"):
        raise NotImplementedError(
            f"oracle for {spec!r} does not attribute counter ids"
        )
    n = len(trace)
    predictions = np.empty(n, dtype=bool)
    counter_ids = np.empty(n, dtype=np.int64)
    for i, (pc, taken) in enumerate(
        zip(trace.pcs.tolist(), trace.outcomes.tolist())
    ):
        counter_ids[i] = oracle.counter_id(int(pc))
        predictions[i] = oracle.predict(int(pc))
        oracle.update(int(pc), bool(taken))
    return predictions, counter_ids


def oracle_rate(spec: str, trace: BranchTrace) -> float:
    """Misprediction rate of ``spec`` on ``trace`` per the oracle."""
    if len(trace) == 0:
        return 0.0
    predictions = oracle_predictions(spec, trace)
    return int(np.count_nonzero(predictions != trace.outcomes)) / len(trace)
