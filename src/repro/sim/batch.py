"""Batched multi-configuration gshare simulation kernel.

The paper's ``gshare.best`` search (Section 3.1) simulates every history
length ``0..index_bits`` at each predictor size — a dozen-plus full
trace passes per (size, benchmark) cell through the scalar per-branch
loop.  This module collapses the whole family into vectorized passes
with no per-branch Python iteration.

Lane model
----------
Lane ``k`` is a ``(index_bits_k, history_bits_k)`` gshare sharing one
trace with every other lane.  Its PHT occupies its own slab of a
conceptual flat counter-state space, so every counter in the batch is
globally unique and lanes never interact.  Because histories depend only
on resolved outcomes — never on predictions — each lane's whole index
stream is precomputable up front (history streams are shared between
lanes with equal history length), leaving only the per-counter
saturating automaton as sequential work.

Counter-major evaluation
------------------------
The kernel transposes each lane from time-major to counter-major:

1. accesses are stably grouped by counter id with an ``O(n)`` counting
   sort (scipy's C ``coo_tocsr`` kernel when available, numpy's radix
   ``argsort`` otherwise), preserving time order inside each group;
2. consecutive same-outcome accesses of a counter collapse into *runs*.
   A run of ``r`` takens acts on the 2-bit counter as the saturating
   map ``s -> min(3, s + r)`` — and every composition of such maps
   stays of the closed form ``s -> min(hi, max(lo, s + c))``, so a run
   is three small integers;
3. a segmented Hillis–Steele scan composes run maps in ``O(log L)``
   doubling steps (``L`` = most runs on any one counter), yielding each
   run's start state;
4. inside a run the automaton moves monotonically, so both the
   per-access states and the run's misprediction *count* have closed
   forms — rate queries never materialize per-access state.

One run decomposition serves both queries: :func:`counter_scan`
returns the state each access observes (deltas in ``{-1, 0, +1}``, so
the counter-major lanes of :mod:`repro.sim.lanes` share it), and
:func:`gshare_rate` counts each run's misses from its start state.
Results are bit-for-bit identical to the scalar step interface
(:func:`repro.sim.engine.run_steps`); the equivalence suite asserts it
lane by lane.

Gshare is a ``lane`` entry of the kernel registry
(:mod:`repro.sim.kernels`): under the compiled engine a whole family's
rates come from one fused pass (:func:`gshare_family_rates`), under
numpy from the per-lane counter-major :func:`gshare_rate`.  Section-4
sweeps group each lane's accesses into substreams inside the compiled
loop (:func:`gshare_substreams`); per-access attribution runs through
:func:`gshare_detailed` on either engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import WEAKLY_TAKEN
from repro.core.grouping import stable_group_order
from repro.core.history import global_history_stream
from repro.core.interfaces import SubstreamGrouping
from repro.core.indexing import gshare_index_stream
from repro.predictors.gshare import GSharePredictor
from repro.traces.record import BranchTrace

__all__ = [
    "GShareLane",
    "gshare_lane_of",
    "gshare_detailed",
    "gshare_substreams",
    "gshare_rate",
    "gshare_family_rates",
    "counter_scan",
]


@dataclass(frozen=True)
class GShareLane:
    """One gshare configuration inside a batch."""

    index_bits: int
    history_bits: int

    def __post_init__(self) -> None:
        if self.index_bits < 0:
            raise ValueError(f"index_bits must be >= 0, got {self.index_bits}")
        if not 0 <= self.history_bits <= self.index_bits:
            raise ValueError(
                f"history_bits ({self.history_bits}) must be in [0, {self.index_bits}]"
            )

    @property
    def table_size(self) -> int:
        return 1 << self.index_bits


def gshare_lane_of(p: GSharePredictor) -> GShareLane:
    """The lane of a built gshare predictor."""
    return GShareLane(index_bits=p.index_bits, history_bits=p.history_bits)


def _compose_segmented(
    shift: np.ndarray, lo: np.ndarray, hi: np.ndarray, pos: np.ndarray
) -> None:
    """Segmented inclusive prefix composition (Hillis–Steele doubling).

    ``(shift, lo, hi)`` hold one saturating map
    ``s -> min(hi, max(lo, s + shift))`` per run and are updated in place
    to the composition of every map from the segment head through that
    run; ``pos`` is each run's offset within its segment.
    """
    if len(pos) == 0:
        return
    longest = int(pos.max()) + 1
    dist = 1
    while dist < longest:
        rows = np.flatnonzero(pos >= dist)
        prev = rows - dist
        shift_f, lo_f, hi_f = shift[prev], lo[prev], hi[prev]
        shift_g, lo_g, hi_g = shift[rows], lo[rows], hi[rows]
        lo[rows] = np.minimum(hi_g, np.maximum(lo_g, lo_f + shift_g))
        hi[rows] = np.minimum(hi_g, np.maximum(lo_g, hi_f + shift_g))
        shift[rows] = shift_f + shift_g
        dist <<= 1


def _counter_runs(
    keys: np.ndarray, deltas: np.ndarray, num_counters: int, init: int, max_state: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Counter-major run decomposition of one access stream.

    Returns ``(order, run_first, run_len, run_delta, run_s0)``: the
    grouping permutation, each run's first position in grouped order,
    its length, its (constant) delta, and — the sequential part of the
    problem, resolved by segmented map composition — the counter state
    at the run's first access.
    """
    n = len(keys)
    keys32 = keys.astype(np.int32, copy=False)
    order = stable_group_order(keys32, num_counters)
    grouped_keys = keys32[order]
    grouped_deltas = deltas[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(grouped_keys[1:], grouped_keys[:-1], out=seg_start[1:])
    run_start = seg_start.copy()
    run_start[1:] |= grouped_deltas[1:] != grouped_deltas[:-1]

    run_first = np.flatnonzero(run_start)
    num_runs = len(run_first)
    run_len = np.empty(num_runs, dtype=np.int32)
    run_len[:-1] = np.diff(run_first)
    run_len[-1] = n - run_first[-1]
    run_delta = grouped_deltas[run_first].astype(np.int32)

    # Elementary maps: a +1 run of length r is (c=r, lo=min(r,M), hi=M),
    # a -1 run is (c=-r, lo=0, hi=max(M-r,0)), a 0 run is the identity.
    shift = run_delta * run_len
    lo = np.where(run_delta > 0, np.minimum(run_len, max_state), 0).astype(np.int32)
    hi = np.where(
        run_delta < 0, np.maximum(max_state - run_len, 0), max_state
    ).astype(np.int32)

    # Position of each run within its counter's segment.
    seg_start_runs = seg_start[run_first]
    seg_first_run = np.flatnonzero(seg_start_runs)
    seg_id = np.cumsum(seg_start_runs, dtype=np.int64) - 1
    pos = np.arange(num_runs, dtype=np.int64) - seg_first_run[seg_id]

    _compose_segmented(shift, lo, hi, pos)

    # State before each run's first access: init at segment heads,
    # otherwise the previous run's inclusive composition applied to init.
    run_s0 = np.full(num_runs, init, dtype=np.int32)
    interior = np.flatnonzero(~seg_start_runs)
    prev = interior - 1
    run_s0[interior] = np.minimum(hi[prev], np.maximum(lo[prev], init + shift[prev]))
    return order, run_first, run_len, run_delta, run_s0


def counter_scan(
    keys: np.ndarray,
    deltas: np.ndarray,
    num_counters: int,
    init: int,
    max_state: int = 3,
) -> np.ndarray:
    """Counter-major scan over saturating counters: the state each
    access *observes* (before its own delta), in time order.

    Parameters
    ----------
    keys:
        Per-access counter ids, time order, in ``[0, num_counters)``.
    deltas:
        Per-access counter movement in ``{-1, 0, +1}``, same length as
        ``keys`` — ``0`` meaning the access reads the counter without
        training it (a skipped partial update).
    num_counters:
        Size of the counter space.
    init:
        Every counter's state before the first access.
    max_state:
        Saturation ceiling (``3`` for the classic 2-bit counter;
        ``(1 << bits) - 1`` for the multi-bit bimodal ablations).
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    order, run_first, _, run_delta, run_s0 = _counter_runs(
        np.asarray(keys), np.asarray(deltas), num_counters, init, max_state
    )
    # Within a run the automaton moves monotonically (or not at all).
    run_id = np.cumsum(_starts_mask(n, run_first), dtype=np.int64) - 1
    offset_in_run = np.arange(n, dtype=np.int64) - run_first[run_id]
    state_grouped = np.clip(
        run_s0[run_id] + run_delta[run_id] * offset_in_run, 0, max_state
    ).astype(np.int32)
    pre_states = np.empty(n, dtype=np.int32)
    pre_states[order] = state_grouped
    return pre_states


def _starts_mask(n: int, starts: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[starts] = True
    return mask


def _train_deltas(outcomes: np.ndarray) -> np.ndarray:
    return np.where(outcomes, 1, -1).astype(np.int8)


def _observed_states(
    keys: np.ndarray,
    deltas: np.ndarray,
    num_counters: int,
    init: int,
    max_state: int,
    engine: str,
) -> np.ndarray:
    """The state each access observes, via the compiled loop or the
    counter-major scan — the shared automaton of every counter-major
    scheme.  ``deltas`` are int-like in ``{-1, 0, +1}``."""
    if engine == "c":
        from repro.sim import _cstep

        table = np.full(num_counters, init, dtype=np.int8)
        return _cstep.counter_lane(
            np.ascontiguousarray(keys, dtype=np.int64),
            np.ascontiguousarray(deltas, dtype=np.int8),
            table,
            max_state,
        )
    if engine != "numpy":
        raise ValueError(f"unsupported counter engine {engine!r}")
    return counter_scan(keys, deltas, num_counters, init, max_state)


def _lane_keys(
    lane: GShareLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]],
) -> np.ndarray:
    if hist_cache is None:
        hist_cache = {}
    if lane.history_bits not in hist_cache:
        hist_cache[lane.history_bits] = global_history_stream(
            trace.outcomes, lane.history_bits
        )
    keys = gshare_index_stream(
        trace.pcs,
        hist_cache[lane.history_bits],
        lane.index_bits,
        lane.history_bits,
    )
    return keys.astype(np.int32, copy=False)


def _gshare_c(
    lane: GShareLane,
    trace: BranchTrace,
    pc_codes: Tuple[np.ndarray, np.ndarray],
    predictions: bool,
) -> Tuple[Optional[np.ndarray], SubstreamGrouping]:
    """One lane through the compiled Section-4 loop: ``(predictions,
    grouping)``, the predictions ``None`` unless asked for."""
    from repro.sim import _cstep

    preds, grouping = _cstep.gshare_detailed(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        lane.table_size - 1,
        (1 << lane.history_bits) - 1,
        np.full(lane.table_size, WEAKLY_TAKEN, dtype=np.int8),
        pc_codes,
        predictions,
    )
    return None if preds is None else preds.view(bool), grouping


def gshare_substreams(
    lane: GShareLane, trace: BranchTrace, pc_codes: Tuple[np.ndarray, np.ndarray]
) -> SubstreamGrouping:
    """Section-4 substreams of one lane, grouped as the compiled loop
    runs (no per-access prediction or counter array).  ``pc_codes`` is
    the trace's :func:`repro.analysis.bias.pc_code_stream`, shared by
    every lane.  Call only when the compiled driver is available."""
    return _gshare_c(lane, trace, pc_codes, predictions=False)[1]


def gshare_detailed(
    lane: GShareLane,
    trace: BranchTrace,
    engine: str,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(predictions, counter_ids)`` of one lane (Section 4).

    ``engine="c"`` runs the compiled Section-4 loop and reads each
    access's counter off its substream (``stream_counter[stream]``);
    ``"numpy"`` resolves the automaton counter-major, where the
    accessed PHT slot IS the counter id.  Both are bit-for-bit what
    ``GSharePredictor.simulate_detailed`` records from power-on state.
    """
    if engine == "c":
        from repro.analysis.bias import pc_code_stream

        preds, grouping = _gshare_c(
            lane, trace, pc_code_stream(trace.pcs), predictions=True
        )
        return preds, grouping.counter_ids
    keys = _lane_keys(lane, trace, hist_cache).astype(np.int64)
    pre = _observed_states(
        keys, _train_deltas(trace.outcomes), lane.table_size, WEAKLY_TAKEN, 3, engine
    )
    return pre >= 2, keys


def gshare_rate(
    lane: GShareLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> float:
    """Misprediction rate of one lane, counter-major, without
    materializing per-access state: a run's mispredictions have a
    closed form in its start state.

    Rates are mispredictions / branches with the same integer counts as
    :attr:`SimulationResult.misprediction_rate`, so they agree
    byte-for-byte with the scalar engine's.
    """
    n = len(trace)
    if n == 0:
        return 0.0
    _, _, run_len, run_delta, run_s0 = _counter_runs(
        _lane_keys(lane, trace, hist_cache),
        _train_deltas(trace.outcomes),
        lane.table_size,
        WEAKLY_TAKEN,
        3,
    )
    # Taken run: accesses j with min(3, s0+j) < 2 mispredict, i.e.
    # clip(2-s0, 0, r) of them; not-taken run: clip(s0-1, 0, r).
    missed = np.where(
        run_delta > 0,
        np.clip(2 - run_s0, 0, run_len),
        np.clip(run_s0 - 1, 0, run_len),
    )
    return int(missed.sum()) / n


def gshare_family_rates(
    lanes: Sequence[GShareLane], trace: BranchTrace
) -> List[float]:
    """Misprediction rate of every lane via the fused family driver.

    The whole lane family advances in one pass per block of branches:
    the compiled driver (:func:`repro.sim._cstep.gshare_fused`) keeps
    every lane's PHT in a shared arena, runs each block lane by lane so
    one lane's table stays in cache for the block, and reduces to
    per-lane misprediction counts in-loop, so neither index streams nor
    per-access state are ever materialized.  Call only when the compiled
    driver is available.
    """
    from repro.sim import _cstep

    n = len(trace)
    sizes = np.array([lane.table_size for lane in lanes], dtype=np.int64)
    base = np.zeros(len(lanes), dtype=np.int64)
    base[1:] = np.cumsum(sizes)[:-1]
    imask = np.array([lane.table_size - 1 for lane in lanes], dtype=np.int64)
    hmask = np.array([(1 << lane.history_bits) - 1 for lane in lanes], dtype=np.int64)
    tables = np.full(int(sizes.sum()), WEAKLY_TAKEN, dtype=np.int8)
    miss = _cstep.gshare_fused(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        imask,
        hmask,
        base,
        tables,
    )
    return [int(m) / n for m in miss]
