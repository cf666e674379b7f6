"""Lane kernels for the registry-ported predictor schemes.

The scheme-agnostic kernel registry (:mod:`repro.sim.kernels`) maps
every registered predictor spec onto the fastest bit-identical
execution strategy available.  This module supplies the per-scheme
*kernels* for the first ported wave — everything beyond the original
gshare/bi-mode fast paths of :mod:`repro.sim.batch` /
:mod:`repro.sim.batch_bimode`.  Each scheme has one per-lane hook,
``<scheme>_detailed(lane, trace, hist_cache) -> (predictions,
counter_ids)``: it serves Section-4 attribution, and the registry
counts a lane's misses from its predictions wherever no faster rate
path applies.  Each scheme also has one reader,
``<scheme>_lane_of(predictor)``, which reads the lane off a built
predictor: the constructors hold every default and range check, and a
reader keeps only the kernel's own limits (C integer widths, the
configurations a loop models).

* **compiled comparator loops** — agree, gskew (both update policies),
  the bimodal+gshare tournament, tri-mode, YAGS, the perceptron and
  the bias filter.  Each lane is one C loop in
  :mod:`repro.sim._cstep` over the raw ``(pcs, outcomes)`` trace: it
  derives its indices in-loop from the PC and one 64-bit history
  register, counts its mispredictions in-loop, and writes per-branch
  predictions and counter ids only when a caller asks for them.  The
  ``*_family_rates`` hooks rate a whole family that way, with no
  per-branch stream at all.
* **counter-major schemes** — bimodal (any counter width) and the
  whole two-level family (GAg/GAs/GAp/gselect and PAg/PAs/PAp).  None
  of these feed predictions back into their own index or training
  streams, so every per-access counter id and training delta is
  precomputable from ``(pcs, outcomes)`` alone with numpy, and the
  remaining sequential work is exactly one saturating-counter automaton
  per table, run by the shared compiled loop
  (:func:`repro.sim._cstep.counter_lane`).
* **statics** — always-taken / always-not-taken / btfnt: pure
  vectorized one-shots that serve every engine.

Every hook but the statics' runs compiled only (the ``cloop`` tier of
:mod:`repro.sim.kernels`): without a compiler (``REPRO_NO_CC=1``, the
one engine switch) the registry runs each predictor's scalar ``step()``
reference instead, and a hook called anyway raises.

Scheme-specific notes
---------------------
**Per-address histories (PAx).**  The branch-history table evolves from
outcomes only, so each register's contents are a pure function of the
earlier occurrences of the PCs mapping to it.  The kernel groups
accesses by BHT slot with the stable counting sort and assembles each
access's history word from the previous ``hist_bits`` outcomes *within
its group* — fully vectorized, one pass per history bit.

**Bias filter.**  The compiled loop inlines the sub-predictor: gshare
or bimodal (the configurations the benches sweep); any other sub falls
to the scalar family with a named veto.

Every kernel is asserted bit-identical to its scalar predictor and the
dict-based oracle by the registry-driven verification suite
(``tests/test_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.counters import WEAKLY_NOT_TAKEN, WEAKLY_TAKEN
from repro.core.grouping import stable_group_order
from repro.core.history import global_history_stream
from repro.core.indexing import concat_index_stream, mask
from repro.core.interfaces import BranchPredictor
from repro.predictors.agree import AgreePredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.filtered import BiasFilterPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.static_ import BTFNTPredictor, _default_backward_classifier
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.trimode import TriModePredictor
from repro.predictors.twolevel import TwoLevelPredictor
from repro.predictors.yags import YagsPredictor
from repro.sim import _cstep
from repro.sim.batch import GShareLane, _train_deltas
from repro.traces.record import BranchTrace

__all__ = [
    "BimodalLane",
    "TwoLevelLane",
    "AgreeLane",
    "GSkewLane",
    "TournamentLane",
    "TriModeLane",
    "YagsLane",
    "PerceptronLane",
    "BiasFilterLane",
    "StaticLane",
    "bimodal_lane_of",
    "twolevel_lane_of",
    "agree_lane_of",
    "gskew_lane_of",
    "tournament_lane_of",
    "trimode_lane_of",
    "yags_lane_of",
    "perceptron_lane_of",
    "Veto",
    "biasfilter_lane_of",
    "static_lane_of",
    "per_address_histories",
    "bimodal_detailed",
    "twolevel_detailed",
    "agree_detailed",
    "gskew_detailed",
    "tournament_detailed",
    "trimode_detailed",
    "yags_detailed",
    "perceptron_detailed",
    "biasfilter_detailed",
    "static_detailed",
    "detailed_num_counters",
]

# -- lane descriptions ------------------------------------------------------------


@dataclass(frozen=True)
class BimodalLane:
    """One bimodal configuration (any counter width)."""

    index_bits: int
    counter_bits: int = 2

    @property
    def threshold(self) -> int:
        return 1 << (self.counter_bits - 1)

    @property
    def max_state(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class TwoLevelLane:
    """One two-level configuration; ``bht_bits is None`` for GAx."""

    scheme: str
    hist_bits: int
    select_bits: int
    bht_bits: Optional[int] = None


@dataclass(frozen=True)
class AgreeLane:
    index_bits: int
    hist_bits: int
    bias_bits: int


@dataclass(frozen=True)
class GSkewLane:
    bank_bits: int
    hist_bits: int
    enhanced: bool = True


@dataclass(frozen=True)
class TournamentLane:
    """The spec-form pairing: bimodal(index) + gshare(index, index)."""

    index_bits: int
    meta_bits: int


@dataclass(frozen=True)
class TriModeLane:
    dir_bits: int
    hist_bits: int
    choice_bits: int


@dataclass(frozen=True)
class YagsLane:
    choice_bits: int
    cache_bits: int
    hist_bits: int
    tag_bits: int


@dataclass(frozen=True)
class PerceptronLane:
    index_bits: int
    hist_bits: int
    weight_bits: int

    @property
    def theta(self) -> int:
        return int(1.93 * self.hist_bits + 14)

    @property
    def w_max(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1

    @property
    def w_min(self) -> int:
        return -(1 << (self.weight_bits - 1))


@dataclass(frozen=True)
class BiasFilterLane:
    """Filter geometry plus the inlined sub-predictor configuration;
    ``sub_hist_bits`` is 0 for a bimodal sub."""

    filter_bits: int
    run_bits: int
    sub_scheme: str  # "gshare" | "bimodal"
    sub_index_bits: int
    sub_hist_bits: int

    @property
    def max_run(self) -> int:
        return (1 << self.run_bits) - 1


@dataclass(frozen=True)
class StaticLane:
    scheme: str  # "always-taken" | "always-not-taken" | "btfnt"


# -- reading a built predictor ----------------------------------------------------
#
# ``<scheme>_lane_of(predictor)`` reads a lane off a predictor that
# ``make_predictor`` (or a caller) built, so the constructors alone hold
# each scheme's defaults and range checks.  Where the kernel cannot run
# a valid configuration (a C integer width, or a pairing the loop does
# not model), a reader returns a :data:`Veto` instead of a lane: the
# reason, which :mod:`repro.sim.kernels` reports under
# ``<scheme>-kernel`` as that predictor runs on the scalar family.

#: A reader's refusal: why the kernel cannot run a valid configuration.
Veto = str


def bimodal_lane_of(p: BimodalPredictor) -> Union[BimodalLane, Veto]:
    # counter states live in int8 in the compiled loop
    if p.table.bits > 7:
        return f"bits={p.table.bits} exceeds the kernel's int8 counters (bits <= 7)"
    return BimodalLane(index_bits=p.index_bits, counter_bits=p.table.bits)


def twolevel_lane_of(p: TwoLevelPredictor) -> TwoLevelLane:
    return TwoLevelLane(
        scheme=p.scheme,
        hist_bits=p.history_bits,
        select_bits=p.pht_select_bits,
        bht_bits=p.bht.index_bits if p.per_address else None,
    )


def agree_lane_of(p: AgreePredictor) -> AgreeLane:
    return AgreeLane(
        index_bits=p.index_bits, hist_bits=p.history_bits, bias_bits=p.bias_index_bits
    )


def gskew_lane_of(p: GSkewPredictor) -> GSkewLane:
    return GSkewLane(
        bank_bits=p.bank_index_bits,
        hist_bits=p.history_bits,
        enhanced=p.update_policy == "enhanced",
    )


def tournament_lane_of(p: TournamentPredictor) -> Union[TournamentLane, Veto]:
    # the loop models the registry pairing: a 2-bit bimodal and a
    # same-geometry gshare at one shared index width
    a, b = p.component_a, p.component_b
    if not (
        isinstance(a, BimodalPredictor)
        and isinstance(b, GSharePredictor)
        and a.table.bits == 2
        and a.index_bits == b.index_bits == b.history_bits
    ):
        return (
            f"components {a.name} + {b.name} are not the modelled pairing "
            "(a 2-bit bimodal and a gshare at one shared index width)"
        )
    return TournamentLane(index_bits=a.index_bits, meta_bits=p.meta_index_bits)


def trimode_lane_of(p: TriModePredictor) -> TriModeLane:
    return TriModeLane(
        dir_bits=p.direction_index_bits,
        hist_bits=p.history_bits,
        choice_bits=p.choice_index_bits,
    )


def yags_lane_of(p: YagsPredictor) -> Union[YagsLane, Veto]:
    # tags live in int32 in the compiled loop
    if p.tag_bits > 30:
        return f"tag={p.tag_bits} exceeds the kernel's int32 tags (tag <= 30)"
    return YagsLane(
        choice_bits=p.choice_index_bits,
        cache_bits=p.cache_index_bits,
        hist_bits=p.history_bits,
        tag_bits=p.tag_bits,
    )


def perceptron_lane_of(p: PerceptronPredictor) -> Union[PerceptronLane, Veto]:
    # weights saturate in int32 in the compiled loop (the int64 dot
    # product then never overflows)
    if p.weight_bits > 30:
        return f"w={p.weight_bits} exceeds the kernel's int32 weights (w <= 30)"
    return PerceptronLane(
        index_bits=p.index_bits, hist_bits=p.history_bits, weight_bits=p.weight_bits
    )


#: Sub-predictor schemes the bias-filter kernel executes in-lane; any
#: other sub-predictor runs through the scalar family with a veto.
BIASFILTER_SUBS = ("gshare", "bimodal")


def biasfilter_lane_of(p: BiasFilterPredictor) -> Union[BiasFilterLane, Veto]:
    # run counters live in int8 in the compiled loop
    if p.run_bits > 7:
        return f"run={p.run_bits} exceeds the kernel's int8 run counters (run <= 7)"
    sub = p.sub_predictor
    if not isinstance(sub, GSharePredictor) and not (
        isinstance(sub, BimodalPredictor) and sub.table.bits == 2
    ):
        what = (
            f"'bimodal' with {sub.table.bits}-bit counters"
            if isinstance(sub, BimodalPredictor)
            else repr(sub.scheme)
        )
        return (
            f"sub-predictor {what} has no kernel lane "
            f"(supported: {', '.join(BIASFILTER_SUBS)})"
        )
    return BiasFilterLane(
        filter_bits=p.filter_index_bits,
        run_bits=p.run_bits,
        sub_scheme=sub.scheme,
        sub_index_bits=sub.index_bits,
        sub_hist_bits=sub.history_bits if isinstance(sub, GSharePredictor) else 0,
    )


def static_lane_of(p: BranchPredictor) -> Union[StaticLane, Veto]:
    # the btfnt lane hard-codes the workload's backward convention
    if isinstance(p, BTFNTPredictor) and p._backward is not _default_backward_classifier:
        return "a custom backward classifier has no kernel lane"
    return StaticLane(scheme=p.scheme)


# -- shared stream helpers --------------------------------------------------------


def _hist(trace: BranchTrace, bits: int, cache: Optional[Dict[int, np.ndarray]]) -> np.ndarray:
    if cache is None:
        return global_history_stream(trace.outcomes, bits)
    if bits not in cache:
        cache[bits] = global_history_stream(trace.outcomes, bits)
    return cache[bits]


def per_address_histories(
    pcs: np.ndarray, outcomes: np.ndarray, bht_bits: int, hist_bits: int
) -> np.ndarray:
    """Each access's BHT register contents at prediction time.

    Bit ``j`` of access ``i``'s word is the outcome of the
    ``(j+1)``-th most recent *earlier* access mapping to the same BHT
    slot (``pc & mask(bht_bits)``) — exactly the shift-register state
    ``PerAddressHistoryTable.read`` returns, vectorized per history bit
    over the stable per-slot grouping.
    """
    n = len(pcs)
    hist = np.zeros(n, dtype=np.int64)
    if n == 0 or hist_bits == 0:
        return hist
    slots = (pcs & mask(bht_bits)).astype(np.int32)
    order = stable_group_order(slots, 1 << bht_bits)
    grouped_slots = slots[order]
    grouped_out = outcomes[order].astype(np.int64)

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(grouped_slots[1:], grouped_slots[:-1], out=seg_start[1:])
    seg_first = np.flatnonzero(seg_start)
    seg_id = np.cumsum(seg_start, dtype=np.int64) - 1
    pos_in_seg = np.arange(n, dtype=np.int64) - seg_first[seg_id]

    grouped_hist = np.zeros(n, dtype=np.int64)
    for j in range(hist_bits):
        has_prior = np.flatnonzero(pos_in_seg >= j + 1)
        grouped_hist[has_prior] |= grouped_out[has_prior - (j + 1)] << j
    hist[order] = grouped_hist
    return hist


# -- compiled comparator loops ------------------------------------------------------
#
# Each ``_<scheme>_c(lane, trace[, preds=None[, cids=None]]) -> int``
# runs one lane's compiled loop from power-on state over the raw trace,
# filling the optional uint8 prediction and int64 counter-id buffers,
# and returns the misprediction count.


def _raw(trace: BranchTrace) -> Tuple[np.ndarray, np.ndarray]:
    """The trace as the compiled loops read it (views, no copy)."""
    return (
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
    )


def _c_detailed(
    run: Callable[..., int], lane, trace: BranchTrace
) -> Tuple[np.ndarray, np.ndarray]:
    preds = np.empty(len(trace), dtype=np.uint8)
    cids = np.empty(len(trace), dtype=np.int64)
    run(lane, trace, preds, cids)
    return preds.view(bool), cids


def _c_family_rates(run: Callable[..., int]) -> Callable[..., List[float]]:
    """The ``family`` hook of a compiled comparator: every lane's loop
    with no per-branch buffer, each rate ``miss / n``."""

    def family_rates(lanes: Sequence[object], trace: BranchTrace) -> List[float]:
        n = len(trace)
        return [run(lane, trace) / n for lane in lanes]

    return family_rates


def _agree_c(lane: AgreeLane, trace: BranchTrace, preds=None, cids=None) -> int:
    return _cstep.agree_lane(
        *_raw(trace),
        mask(lane.index_bits),
        mask(lane.hist_bits),
        mask(lane.bias_bits),
        np.full(1 << lane.index_bits, WEAKLY_TAKEN, dtype=np.int8),
        np.full(1 << lane.bias_bits, 2, dtype=np.uint8),  # 2 = not yet set
        preds,
        cids,
    )


def _tournament_c(
    lane: TournamentLane, trace: BranchTrace, preds=None, cids=None
) -> int:
    size = 1 << lane.index_bits
    return _cstep.tournament_lane(
        *_raw(trace),
        mask(lane.index_bits),
        mask(lane.meta_bits),
        np.full(size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(1 << lane.meta_bits, WEAKLY_TAKEN, dtype=np.int8),
        preds,
        cids,
    )


def _gskew_c(lane: GSkewLane, trace: BranchTrace, preds=None, cids=None) -> int:
    return _cstep.gskew_lane(
        *_raw(trace),
        lane.bank_bits,
        lane.hist_bits,
        lane.enhanced,
        np.full((3, 1 << lane.bank_bits), WEAKLY_TAKEN, dtype=np.int8),
        preds,
        cids,
    )


def _trimode_c(lane: TriModeLane, trace: BranchTrace, preds=None, cids=None) -> int:
    size = 1 << lane.dir_bits
    return _cstep.trimode_lane(
        *_raw(trace),
        mask(lane.dir_bits),
        mask(lane.hist_bits),
        mask(lane.choice_bits),
        np.full(size, WEAKLY_NOT_TAKEN, dtype=np.int8),
        np.full(size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(1 << lane.choice_bits, WEAKLY_TAKEN, dtype=np.int8),
        preds,
        cids,
    )


def _yags_c(lane: YagsLane, trace: BranchTrace, preds=None, cids=None) -> int:
    cache_size = 1 << lane.cache_bits
    return _cstep.yags_lane(
        *_raw(trace),
        mask(lane.choice_bits),
        mask(lane.cache_bits),
        mask(lane.hist_bits),
        lane.cache_bits,
        mask(lane.tag_bits),
        np.full(1 << lane.choice_bits, WEAKLY_TAKEN, dtype=np.int8),
        np.full(cache_size, -1, dtype=np.int32),
        np.full(cache_size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(cache_size, -1, dtype=np.int32),
        np.full(cache_size, WEAKLY_NOT_TAKEN, dtype=np.int8),
        preds,
        cids,
    )


def _perceptron_c(lane: PerceptronLane, trace: BranchTrace, preds=None) -> int:
    return _cstep.perceptron_lane(
        *_raw(trace),
        lane.index_bits,
        lane.hist_bits,
        lane.theta,
        lane.w_min,
        lane.w_max,
        np.zeros((1 << lane.index_bits) * (lane.hist_bits + 1), dtype=np.int32),
        preds,
    )


def _biasfilter_c(
    lane: BiasFilterLane, trace: BranchTrace, preds=None, cids=None
) -> int:
    size = 1 << lane.filter_bits
    return _cstep.biasfilter_lane(
        *_raw(trace),
        lane.filter_bits,
        lane.max_run,
        lane.sub_index_bits,
        lane.sub_hist_bits,
        np.zeros(size, dtype=np.uint8),
        np.zeros(size, dtype=np.int8),
        np.full(1 << lane.sub_index_bits, WEAKLY_TAKEN, dtype=np.int8),
        preds,
        cids,
    )


agree_family_rates = _c_family_rates(_agree_c)
tournament_family_rates = _c_family_rates(_tournament_c)
gskew_family_rates = _c_family_rates(_gskew_c)
trimode_family_rates = _c_family_rates(_trimode_c)
yags_family_rates = _c_family_rates(_yags_c)
perceptron_family_rates = _c_family_rates(_perceptron_c)
biasfilter_family_rates = _c_family_rates(_biasfilter_c)


# -- counter-major kernels --------------------------------------------------------


def _observed_states(
    keys: np.ndarray, outcomes: np.ndarray, num_counters: int, init: int, max_state: int
) -> np.ndarray:
    """The state each access observes, through the shared compiled
    counter loop — the automaton of every counter-major scheme."""
    return _cstep.counter_lane(
        np.ascontiguousarray(keys, dtype=np.int64),
        _train_deltas(outcomes),
        np.full(num_counters, init, dtype=np.int8),
        max_state,
    )


def bimodal_detailed(
    lane: BimodalLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed slot IS the id."""
    keys = (trace.pcs & mask(lane.index_bits)).astype(np.int64)
    pre = _observed_states(
        keys,
        trace.outcomes,
        1 << lane.index_bits,
        lane.threshold,  # power-on init is weakly taken at any width
        lane.max_state,
    )
    return pre >= lane.threshold, keys


def twolevel_detailed(
    lane: TwoLevelLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed PHT slot IS the id."""
    if lane.bht_bits is None:
        histories = _hist(trace, lane.hist_bits, hist_cache)
    else:
        histories = per_address_histories(
            trace.pcs, trace.outcomes, lane.bht_bits, lane.hist_bits
        )
    keys = concat_index_stream(
        histories, lane.hist_bits, trace.pcs, lane.select_bits
    ).astype(np.int64)
    pre = _observed_states(
        keys, trace.outcomes, 1 << (lane.hist_bits + lane.select_bits), WEAKLY_TAKEN, 3
    )
    return pre >= 2, keys


# -- compiled-loop kernels ----------------------------------------------------------


def agree_detailed(
    lane: AgreeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed agree-PHT slot IS
    the id (the biasing bits are not counters)."""
    return _c_detailed(_agree_c, lane, trace)


def gskew_detailed(
    lane: GSkewLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the prediction is attributed to
    the first (lowest-numbered) bank voting with the majority, bank ``k``
    offset by ``k * bank_size``."""
    return _c_detailed(_gskew_c, lane, trace)


def tournament_detailed(
    lane: TournamentLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the *selected* component's
    counter, gshare (component b) ids offset by the bimodal's size."""
    return _c_detailed(_tournament_c, lane, trace)


def trimode_detailed(
    lane: TriModeLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the selected direction counter,
    bank ``b`` (not-taken, taken, weak) offset by ``b * bank_size``."""
    return _c_detailed(_trimode_c, lane, trace)


def yags_detailed(
    lane: YagsLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: choice table, then taken cache,
    then not-taken cache; a hit charges the hitting cache entry, a miss
    the choice counter that supplied the bias."""
    return _c_detailed(_yags_c, lane, trace)


def perceptron_detailed(
    lane: PerceptronLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: the accessed weight row is
    selected by address alone, so the ids are a pure vectorized hash;
    the predictions still need the sequential loop (the threshold gate
    reads the trained dot product: training feeds back into training,
    so no counter-major form exists)."""
    preds = np.empty(len(trace), dtype=np.uint8)
    _perceptron_c(lane, trace, preds)
    return preds.view(bool), (trace.pcs & mask(lane.index_bits)).astype(np.int64)


def biasfilter_detailed(
    lane: BiasFilterLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: a filtered access charges its
    filter slot, any other the sub-predictor's counter offset by the
    filter size."""
    return _c_detailed(_biasfilter_c, lane, trace)


def static_detailed(
    lane: StaticLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(predictions, counter_ids)``: btfnt attributes to its two
    virtual rules (0 = forward, 1 = backward); the fixed schemes have a
    single virtual counter.  The statics keep no state, so the same
    vectorized one-shot serves every engine."""
    if lane.scheme == "btfnt":
        preds = (trace.pcs & 1).astype(bool)
        return preds, preds.astype(np.int64)
    n = len(trace)
    return np.full(n, lane.scheme == "always-taken"), np.zeros(n, dtype=np.int64)


def detailed_num_counters(lane) -> int:
    """Section-4 counter count of a lane — the ``num_counters`` of the
    :class:`~repro.core.interfaces.DetailedSimulation` the scalar
    predictor would build for the same configuration."""
    from repro.sim.batch_bimode import BiModeLane

    if isinstance(lane, GShareLane):
        return lane.table_size
    if isinstance(lane, BiModeLane):
        return 2 * lane.bank_size
    if isinstance(lane, BimodalLane):
        return 1 << lane.index_bits
    if isinstance(lane, TwoLevelLane):
        return 1 << (lane.hist_bits + lane.select_bits)
    if isinstance(lane, AgreeLane):
        return 1 << lane.index_bits
    if isinstance(lane, GSkewLane):
        return 3 << lane.bank_bits
    if isinstance(lane, TournamentLane):
        return 2 << lane.index_bits
    if isinstance(lane, TriModeLane):
        return 3 << lane.dir_bits
    if isinstance(lane, YagsLane):
        return (1 << lane.choice_bits) + (2 << lane.cache_bits)
    if isinstance(lane, PerceptronLane):
        return 1 << lane.index_bits
    if isinstance(lane, BiasFilterLane):
        return (1 << lane.filter_bits) + (1 << lane.sub_index_bits)
    if isinstance(lane, StaticLane):
        return 2 if lane.scheme == "btfnt" else 1
    raise TypeError(f"unknown lane type {type(lane).__name__}")
