"""Fused sweep planner: one trace pass evaluates every cell.

A paper sweep aims a *grid* of predictor specs at each benchmark trace
— Figure 2/3/4 together evaluate a hundred-plus configurations per
trace — and replaying the shared trace independently per cell is
O(specs x trace) work for what is structurally O(trace) of streaming
plus O(specs) of reduction.  The planner closes that gap.

Planner model
-------------
``plan_families`` groups a spec grid into **families**, one per kernel
registry entry (:mod:`repro.sim.kernels`).  Lanes of one family share
precomputed history streams, and an entry with a fused C loop (gshare,
bi-mode — including the ``full_update`` / ``choice_hist`` ablation
variants) advances the whole family in one pass over the raw
``(pc, outcome)`` stream with one shared 64-bit history register
(gshare's block by block, each lane running the whole block so its
table stays in cache).

Specs whose built predictor no kernel lane covers (a configuration
past a kernel's own limits, such as perceptron weights wider than the
loop's int32 or a bias filter whose sub-predictor has no kernel lane)
form the **scalar** family.  The registry runs it per-cell on each
spec's ``step()`` reference; falling off the batched path is reported
as a health degradation so the CLI's coalesced summary shows exactly
which schemes did not batch, and each kernel veto is named under
``<scheme>-kernel``.  A spec its constructor
refuses is never planned by a sweep: it fails as its own
:class:`repro.sim.parallel.FailedCell`.  Every engine
choice happens inside the registry, from each kind's tier and whether a
compiler is available (``REPRO_NO_CC=1`` vetoes it).

Families split only on *kind*: two gshare specs never land in separate
families, because nothing about them prevents sharing the pass.  The
family evaluators reduce to per-spec misprediction rates in-loop, so
journals and rate caches keep their per-cell granularity unchanged.
Every engine is bit-identical; the equivalence suite and the
differential oracle assert it cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import kernels
from repro.traces.record import BranchTrace

__all__ = [
    "SpecFamily",
    "plan_families",
    "family_rates",
    "family_detailed",
]


@dataclass(frozen=True)
class SpecFamily:
    """One group of specs sharing a fused evaluation pass."""

    kind: str  # any member of kernels.family_order()
    specs: Tuple[str, ...]
    lanes: Tuple[object, ...]  # parallel to specs; None for scalar

    def __post_init__(self) -> None:
        if self.kind not in kernels.family_order():
            raise ValueError(f"unknown family kind {self.kind!r}")
        if len(self.specs) != len(self.lanes):
            raise ValueError("specs and lanes must be parallel")

    def __len__(self) -> int:
        return len(self.specs)


def plan_families(specs: Sequence[str]) -> List[SpecFamily]:
    """Group a spec grid into fused families.

    Duplicate specs collapse to one lane (the grid's answer is the same
    cell); order within a family follows first appearance.  Returns
    only non-empty families, in registry order, scalar last.
    """
    groups: Dict[str, List[Tuple[str, object]]] = {
        kind: [] for kind in kernels.family_order()
    }
    for spec in dict.fromkeys(specs):
        kind, lane = kernels.kernel_for_spec(spec)
        groups[kind].append((spec, lane))
    return [
        SpecFamily(
            kind=kind,
            specs=tuple(spec for spec, _ in members),
            lanes=tuple(lane for _, lane in members),
        )
        for kind, members in groups.items()
        if members
    ]


def family_rates(family: SpecFamily, trace: BranchTrace) -> Dict[str, float]:
    """Misprediction rate of every spec in one family on one trace,
    through :func:`repro.sim.kernels.family_rates` (the scalar family
    included, with its degradation health-reported)."""
    rates = kernels.family_rates(family.kind, family.specs, family.lanes, trace)
    return dict(zip(family.specs, rates))


def family_detailed(
    family: SpecFamily,
    trace: BranchTrace,
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[str, object]:
    """Section-4 attribution of every spec in one family on one trace.

    Returns ``{spec: row}`` with the rows of :func:`repro.sim.kernels.
    family_detailed`: a detailed simulation, bit-for-bit the scalar
    ``simulate_detailed`` loop's output from power-on state, or — given
    the trace's ``pc_codes`` and a compiled gshare or bi-mode lane — the
    substream grouping its loop emits.  Every family, the scalar one
    included, dispatches as :func:`repro.sim.engine.run_detailed` does.
    """
    rows = kernels.family_detailed(
        family.kind, family.specs, family.lanes, trace, pc_codes=pc_codes
    )
    return dict(zip(family.specs, rows))
