"""Trace statistics — the raw material of the paper's Table 2 and the
per-branch bias distribution behind its Section-4 analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.traces.record import BranchTrace

__all__ = [
    "TraceStats",
    "compute_stats",
    "per_branch_bias",
]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace (one row of Table 2, extended)."""

    name: str
    static_branches: int
    dynamic_branches: int
    taken_rate: float
    #: fraction of dynamic branches from static branches taken >= 90 % of the time
    strongly_taken_fraction: float
    #: fraction of dynamic branches from static branches taken <= 10 % of the time
    strongly_not_taken_fraction: float

    @property
    def strongly_biased_fraction(self) -> float:
        """Dynamic fraction from >=90 %-biased statics ([Chang94]: ~50 % on CINT92)."""
        return self.strongly_taken_fraction + self.strongly_not_taken_fraction

    @property
    def weakly_biased_fraction(self) -> float:
        return 1.0 - self.strongly_biased_fraction


def per_branch_bias(trace: BranchTrace) -> Dict[int, tuple]:
    """Per static branch: ``pc -> (dynamic_count, taken_count)``."""
    pcs = trace.pcs
    outcomes = trace.outcomes
    unique, inverse = np.unique(pcs, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(unique))
    takens = np.bincount(inverse, weights=outcomes.astype(np.float64), minlength=len(unique))
    return {
        int(pc): (int(count), int(taken))
        for pc, count, taken in zip(unique.tolist(), counts.tolist(), takens.tolist())
    }


def compute_stats(trace: BranchTrace, bias_threshold: float = 0.9) -> TraceStats:
    """Table-2 style statistics plus the static-bias mix.

    ``bias_threshold`` is the paper's 90 % strong-bias boundary.
    """
    if not 0.5 <= bias_threshold <= 1.0:
        raise ValueError(f"bias_threshold must be in [0.5, 1.0], got {bias_threshold}")
    n = len(trace)
    if n == 0:
        return TraceStats(
            name=trace.name,
            static_branches=0,
            dynamic_branches=0,
            taken_rate=0.0,
            strongly_taken_fraction=0.0,
            strongly_not_taken_fraction=0.0,
        )
    bias = per_branch_bias(trace)
    strongly_taken_dyn = 0
    strongly_not_taken_dyn = 0
    for count, taken in bias.values():
        rate = taken / count
        if rate >= bias_threshold:
            strongly_taken_dyn += count
        elif rate <= 1.0 - bias_threshold:
            strongly_not_taken_dyn += count
    return TraceStats(
        name=trace.name,
        static_branches=len(bias),
        dynamic_branches=n,
        taken_rate=trace.taken_rate,
        strongly_taken_fraction=strongly_taken_dyn / n,
        strongly_not_taken_fraction=strongly_not_taken_dyn / n,
    )

