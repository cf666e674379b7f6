"""Batched multi-configuration gshare simulation kernel.

The paper's ``gshare.best`` search (Section 3.1) simulates every history
length ``0..index_bits`` at each predictor size — a dozen-plus full
trace passes per (size, benchmark) cell through the scalar per-branch
loop.  This module collapses the whole family into one compiled pass,
and keeps a vectorized rate path for processes without a compiler.

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

Counter-major rates
-------------------
Without a compiler, :func:`gshare_rate` counts a lane's misses with no
per-branch Python iteration by transposing it from time-major to
counter-major:

1. each access, packed as ``(counter << 1) | outcome``, is stably
   grouped by counter with an ``O(n)`` counting sort (scipy's C
   ``coo_tocsr`` kernel when available, numpy's radix ``argsort``
   otherwise), preserving time order inside each group;
2. maximal stretches of equal packed values are *runs* of one
   outcome on one counter.  A 2-bit counter is a 4-state automaton,
   so a run of ``r`` takens is the map ``s -> min(3, s + r)`` on
   ``{0, 1, 2, 3}`` (``max(0, s - r)`` for not-takens, ``r`` capped
   at 3), one of the 256 maps packed as four 2-bit next states in a
   byte, and composing two maps is one lookup in a 256x256 table.  A
   counter's first run starts at ``WEAKLY_TAKEN``, so its map is
   pinned to the constant of its end state;
3. a Hillis–Steele scan composes each run's map with the ``2^k`` runs
   before it in ``O(log L)`` doubling steps (``L`` = most runs on any
   one counter).  A constant map absorbs everything before it, and
   every composition turns constant once it reaches its counter's
   pinned first run (or earlier, once it saturates), so the scan
   retires a run as soon as its map is constant and needs no segment
   bounds: the map's value is the counter state after the run;
4. inside a run the automaton moves monotonically, so the run's
   misprediction *count* has a closed form in its start state (the
   previous run's end state), and no per-access state is ever
   materialized.

Rates are bit-for-bit identical to the scalar step interface
(:func:`repro.sim.engine.run_steps`); the equivalence suite asserts it
lane by lane.

Gshare is the ``lane`` entry of the kernel registry
(:mod:`repro.sim.kernels`): under the compiled engine a whole family's
rates come from one fused pass (:func:`gshare_family_rates`), under
numpy from the per-lane counter-major :func:`gshare_rate`.  Section-4
attribution is compiled only: sweeps group each lane's accesses into
substreams inside the compiled loop (:func:`gshare_substreams`), and
:func:`gshare_detailed` reads per-access predictions and counter ids
off the same loop; without a compiler the registry runs the scalar
``simulate_detailed`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import WEAKLY_TAKEN
from repro.core.grouping import stable_group
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


# Maps on the 2-bit counter states {0, 1, 2, 3}, each packed into one
# byte: f(s) in bits 2s..2s+1.
_STATES = np.arange(4, dtype=np.uint8)
_MAP_STATES = (np.arange(256, dtype=np.uint8)[:, None] >> (2 * _STATES)) & 3


def _pack(states: np.ndarray) -> np.ndarray:
    """Byte of each map given as its four next states (last axis)."""
    packed = np.asarray(states, dtype=np.uint8) << (2 * _STATES)
    return packed.sum(-1).astype(np.uint8)


def _composition_table() -> np.ndarray:
    """``table[(f << 8) | g]`` is the byte of ``g`` after ``f``."""
    table = np.zeros((256, 256), dtype=np.uint8)
    for s in range(4):
        table |= _MAP_STATES.T[_MAP_STATES[:, s]] << (2 * s)
    return table.ravel()


def _run_maps() -> np.ndarray:
    """Map of a run by its code ``(first << 3) | (taken << 2) | min(r, 3)``:
    ``min(3, s + r)`` or ``max(0, s - r)``, or, for a counter's first run,
    the constant map at that run's end state from ``WEAKLY_TAKEN``."""
    r = np.arange(4)[:, None]
    moves = np.stack(
        [np.maximum(_STATES.astype(int) - r, 0), np.minimum(_STATES + r, 3)]
    )
    pinned = np.repeat(moves[..., WEAKLY_TAKEN : WEAKLY_TAKEN + 1], 4, axis=-1)
    return _pack(np.stack([moves, pinned])).ravel()


def _miss_caps() -> np.ndarray:
    """Misses of an unbounded run by ``(first << 3) | (taken << 2) | s0``:
    a taken run misses while below 2, a not-taken one while at or above
    2; a counter's first run starts at ``WEAKLY_TAKEN`` whatever ``s0``."""
    s = _STATES.astype(int)
    caps = np.stack([np.maximum(s - 1, 0), np.maximum(2 - s, 0)])
    first = np.repeat(caps[:, WEAKLY_TAKEN : WEAKLY_TAKEN + 1], 4, axis=-1)
    return np.stack([caps, first]).ravel()


_COMPOSE = _composition_table()
_RUN_MAP = _run_maps()
_MISS_CAP = _miss_caps()
#: Maps that are not constant: the runs the scan still composes.
_OPEN = _MAP_STATES.min(axis=1) != _MAP_STATES.max(axis=1)


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
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(predictions, counter_ids)`` of one lane (Section 4):
    the compiled Section-4 loop, each access's counter read off its
    substream (``stream_counter[stream]``) — bit-for-bit what
    ``GSharePredictor.simulate_detailed`` records from power-on state.
    Call only when the compiled driver is available."""
    from repro.analysis.bias import pc_code_stream

    preds, grouping = _gshare_c(lane, trace, pc_code_stream(trace.pcs), predictions=True)
    return preds, grouping.counter_ids


def gshare_rate(
    lane: GShareLane,
    trace: BranchTrace,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> float:
    """Misprediction rate of one lane, counter-major, without
    materializing per-access state: a run's mispredictions have a
    closed form in its start state.  Family sweeps pass one
    ``hist_cache`` for all lanes.

    Rates are mispredictions / branches with the same integer counts as
    :attr:`SimulationResult.misprediction_rate`, so they agree
    byte-for-byte with the scalar engine's.
    """
    n = len(trace)
    if n == 0:
        return 0.0
    keys = _lane_keys(lane, trace, hist_cache)
    grouped = stable_group(keys, lane.table_size, (keys << 1) | trace.outcomes)
    run_first = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    run = grouped[run_first]
    first = np.empty(len(run), dtype=bool)
    first[0] = True
    np.greater(run[1:] ^ run[:-1], 1, out=first[1:])  # the counter changed
    code = (first.view(np.uint8) << 3) | ((run & 1) << 2)
    run_len = np.diff(run_first, append=n)
    maps = _RUN_MAP[code | np.minimum(run_len, 3)]

    # numpy reads every maps[rows - dist] before it writes maps[rows], so
    # each step composes the previous step's maps.
    rows = np.flatnonzero(_OPEN[maps])
    dist = 1
    while len(rows):
        composed = _COMPOSE[(maps[rows - dist].astype(np.intp) << 8) | maps[rows]]
        maps[rows] = composed
        rows = rows[_OPEN[composed]]
        dist <<= 1

    s0 = np.zeros(len(run), dtype=np.uint8)
    s0[1:] = maps[:-1] & 3  # the previous run's (constant) end state
    return int(np.minimum(run_len, _MISS_CAP[code | s0]).sum()) / n


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
