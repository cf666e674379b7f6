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
form the **scalar** family.  These run per-cell through the scalar
engine; falling off the batched path is reported as a health
degradation so the CLI's coalesced summary shows exactly which schemes
did not batch, and each kernel veto is named under ``<scheme>-kernel``
(:func:`repro.sim.kernels.planner_vetoes`).  A spec its constructor
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


def _scalar_reason(specs: Sequence[str]) -> str:
    """Why a family runs scalar: the schemes the registry has never
    heard of ("unfusable"), the ported schemes whose kernel vetoes a
    configuration (each veto reported by name under ``<scheme>-kernel``)
    and those whose constructor refuses the spec."""
    vetoed = set(kernels.planner_vetoes(specs))
    groups: Dict[str, set] = {}
    for spec in specs:
        scheme = spec.split(":", 1)[0]
        if scheme not in kernels.PORTED:
            label = "unfusable scheme(s)"
        elif spec in vetoed:
            label = "kernel veto"
        else:
            label = "refused spec(s)"
        groups.setdefault(label, set()).add(scheme)
    return "; ".join(f"{label}: {', '.join(sorted(s))}" for label, s in groups.items())


def family_rates(family: SpecFamily, trace: BranchTrace) -> Dict[str, float]:
    """Misprediction rate of every spec in one family on one trace.

    Registry families dispatch through :func:`repro.sim.kernels.
    family_rates`; the scalar family runs per-cell and reports the
    degradation.
    """
    if family.kind != "scalar":
        rates = kernels.family_rates(family.kind, family.specs, family.lanes, trace)
        return dict(zip(family.specs, rates))
    from repro import health
    from repro.core.registry import make_predictor
    from repro.sim.engine import run

    health.emit(
        "sweep-planner",
        "fused",
        "scalar",
        reason=_scalar_reason(family.specs),
        severity="degraded",
        cells=len(family),
    )
    return {
        spec: run(make_predictor(spec), trace).misprediction_rate
        for spec in family.specs
    }


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
    substream grouping its loop emits.  Registry families dispatch through the kernel
    registry, and the scalar family runs per-cell with the degradation
    health-reported — mirroring :func:`repro.sim.engine.run_detailed`
    exactly.
    """
    if family.kind != "scalar":
        rows = kernels.family_detailed(
            family.kind, family.specs, family.lanes, trace, pc_codes=pc_codes
        )
        return dict(zip(family.specs, rows))
    from repro import health
    from repro.core.registry import make_predictor

    health.engine_used(
        "detailed-kernel",
        "scalar",
        expected="batch",
        cells=len(family),
        reason=_scalar_reason(family.specs),
    )
    return {spec: make_predictor(spec).simulate_detailed(trace) for spec in family.specs}
