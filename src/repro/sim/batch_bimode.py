"""Bi-mode lane kernels: the compiled loops behind the registry entry.

Why bi-mode has no counter-major form
-------------------------------------
The counter-major decomposition of :mod:`repro.sim.batch` relies on the
whole per-counter access stream being known up front: gshare's index
streams depend only on resolved outcomes.  Bi-mode breaks this with a
feedback loop — which direction *bank* an access lands in depends on
the live choice-counter state, and whether the choice counter trains
depends on the selected bank's prediction (the partial-update exception
of Section 2.2).  The access-to-counter mapping is therefore itself a
function of counter state and cannot be precomputed.

What remains is a small sequential automaton (~10 integer ops per
branch) that runs in the compiled loops of :mod:`repro.sim._cstep`,
both of which derive the direction and choice indices in-loop from the
raw PCs and one running 64-bit history register:

* :func:`bimode_family_rates` — the whole lane family in one pass over
  the raw trace (``bimode_fused``), reducing to per-lane miss counts;
* :func:`bimode_substreams` / :func:`bimode_detailed` — one lane
  (``bimode_pair``), grouping its accesses into Section-4 substreams as
  it runs, and recording per-branch predictions when asked to.

Bi-mode is a ``cloop`` entry of the kernel registry
(:mod:`repro.sim.kernels`): without a compiler it runs the scalar
:class:`repro.core.bimode.BiModePredictor` loop, exactly like tri-mode
and YAGS.  Both loops are asserted bit-for-bit identical to the scalar
predictor by the equivalence suite and the differential oracle layer
(:mod:`repro.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bimode import BiModePredictor
from repro.core.counters import WEAKLY_NOT_TAKEN, WEAKLY_TAKEN
from repro.core.indexing import mask
from repro.core.interfaces import SubstreamGrouping
from repro.sim import _cstep
from repro.traces.record import BranchTrace

__all__ = [
    "BiModeLane",
    "bimode_lane_of",
    "bimode_detailed",
    "bimode_substreams",
    "bimode_family_rates",
]


@dataclass(frozen=True)
class BiModeLane:
    """One bi-mode configuration inside a batch."""

    dir_bits: int
    hist_bits: int
    choice_bits: int
    full_update: bool = False
    choice_uses_history: bool = False

    def __post_init__(self) -> None:
        if self.dir_bits < 0:
            raise ValueError(f"dir_bits must be >= 0, got {self.dir_bits}")
        if not 0 <= self.hist_bits <= self.dir_bits:
            raise ValueError(
                f"hist_bits ({self.hist_bits}) must be in [0, {self.dir_bits}]"
            )
        if self.choice_bits < 0:
            raise ValueError(f"choice_bits must be >= 0, got {self.choice_bits}")

    @property
    def bank_size(self) -> int:
        """Counters per direction bank."""
        return 1 << self.dir_bits

    @property
    def choice_size(self) -> int:
        return 1 << self.choice_bits


def bimode_lane_of(p: BiModePredictor) -> BiModeLane:
    """The lane of a built bi-mode predictor."""
    return BiModeLane(
        dir_bits=p.direction_index_bits,
        hist_bits=p.history_bits,
        choice_bits=p.choice_index_bits,
        full_update=bool(p.full_update),
        choice_uses_history=bool(p.choice_uses_history),
    )


def _choice_hist_mask(lane: BiModeLane) -> int:
    """History mask of the choice index: none unless the choice table
    uses history, then at most the choice width."""
    if not lane.choice_uses_history:
        return 0
    return mask(min(lane.hist_bits, lane.choice_bits))


def _run_pair(
    lane: BiModeLane,
    trace: BranchTrace,
    engine: str,
    pc_codes: Tuple[np.ndarray, np.ndarray],
    predictions: bool = True,
) -> Tuple[Optional[np.ndarray], SubstreamGrouping]:
    """One lane through the compiled Section-4 loop: ``(predictions,
    grouping)``, the predictions ``None`` unless asked for."""
    if engine != "c":
        raise ValueError(f"unsupported bi-mode engine {engine!r}")
    preds, grouping = _cstep.bimode_pair(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        mask(lane.dir_bits),
        mask(lane.hist_bits),
        mask(lane.choice_bits),
        _choice_hist_mask(lane),
        lane.full_update,
        np.full(lane.bank_size, WEAKLY_NOT_TAKEN, dtype=np.int8),
        np.full(lane.bank_size, WEAKLY_TAKEN, dtype=np.int8),
        np.full(lane.choice_size, WEAKLY_TAKEN, dtype=np.int8),
        pc_codes,
        predictions,
    )
    return None if preds is None else preds.view(bool), grouping


def bimode_substreams(
    lane: BiModeLane, trace: BranchTrace, pc_codes: Tuple[np.ndarray, np.ndarray]
) -> SubstreamGrouping:
    """Section-4 substreams of one lane, grouped as the compiled loop
    runs (no per-access prediction or counter array).  ``pc_codes`` is
    the trace's :func:`repro.analysis.bias.pc_code_stream`, shared by
    every lane.  Call only when the compiled driver is available."""
    return _run_pair(lane, trace, "c", pc_codes, predictions=False)[1]


def bimode_detailed(
    lane: BiModeLane,
    trace: BranchTrace,
    engine: str,
    hist_cache: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(predictions, counter_ids)`` of one lane (Section 4).

    Counter ids follow the scalar convention of
    ``BiModePredictor.simulate_detailed``: the selected direction
    counter's index, with taken-bank accesses offset by ``bank_size``
    (so the id space has ``2 * bank_size`` counters).  They are read off
    each access's substream (``stream_counter[stream]``).
    """
    from repro.analysis.bias import pc_code_stream

    preds, grouping = _run_pair(lane, trace, engine, pc_code_stream(trace.pcs))
    return preds, grouping.counter_ids


def bimode_family_rates(
    lanes: Sequence[BiModeLane], trace: BranchTrace
) -> List[float]:
    """Misprediction rate of every lane via the fused single-pass driver.

    The whole lane family advances in ONE pass over the raw trace: the
    compiled driver (:func:`repro.sim._cstep.bimode_fused`) keeps every
    lane's three tables in a shared arena, derives both index streams
    in-loop from one running 64-bit history register (each lane masks
    its own widths), and reduces to per-lane misprediction counts
    without materializing index streams or predictions.  Call only when
    the compiled driver is available.
    """
    n = len(trace)
    P = len(lanes)
    dmask = np.array([mask(lane.dir_bits) for lane in lanes], dtype=np.int64)
    dhmask = np.array([mask(lane.hist_bits) for lane in lanes], dtype=np.int64)
    cmask = np.array([mask(lane.choice_bits) for lane in lanes], dtype=np.int64)
    chmask = np.array([_choice_hist_mask(lane) for lane in lanes], dtype=np.int64)
    full_update = np.array([lane.full_update for lane in lanes], dtype=np.uint8)
    nt_base = np.empty(P, dtype=np.int64)
    tk_base = np.empty(P, dtype=np.int64)
    choice_base = np.empty(P, dtype=np.int64)
    total = 0
    for j, lane in enumerate(lanes):
        nt_base[j] = total
        tk_base[j] = total + lane.bank_size
        choice_base[j] = total + 2 * lane.bank_size
        total += 2 * lane.bank_size + lane.choice_size
    tables = np.empty(total, dtype=np.int8)
    for j, lane in enumerate(lanes):
        tables[nt_base[j] : tk_base[j]] = WEAKLY_NOT_TAKEN
        tables[tk_base[j] : choice_base[j]] = WEAKLY_TAKEN
        tables[choice_base[j] : choice_base[j] + lane.choice_size] = WEAKLY_TAKEN
    miss = _cstep.bimode_fused(
        np.ascontiguousarray(trace.pcs, dtype=np.int64),
        np.ascontiguousarray(trace.outcomes).view(np.uint8),
        dmask,
        dhmask,
        cmask,
        chmask,
        full_update,
        nt_base,
        tk_base,
        choice_base,
        tables,
    )
    return [int(m) / n for m in miss]
