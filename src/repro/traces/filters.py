"""Trace transformations: chunk interleaving, the context-switch model
behind the context-switch bench and the integration tests."""

from __future__ import annotations

import numpy as np

from repro.traces.record import BranchTrace

__all__ = ["interleave"]


def interleave(a: BranchTrace, b: BranchTrace, period: int, name: str = "") -> BranchTrace:
    """Alternate ``period``-length chunks of two traces (context-switch model).

    Used by failure-injection tests to measure how predictor state
    survives interleaved workloads.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    pcs = []
    outcomes = []
    ia = ib = 0
    turn_a = True
    while ia < len(a) or ib < len(b):
        if turn_a and ia < len(a):
            pcs.append(a.pcs[ia : ia + period])
            outcomes.append(a.outcomes[ia : ia + period])
            ia += period
        elif not turn_a and ib < len(b):
            pcs.append(b.pcs[ib : ib + period])
            outcomes.append(b.outcomes[ib : ib + period])
            ib += period
        turn_a = not turn_a
    if not pcs:
        return BranchTrace.empty(name=name)
    return BranchTrace(
        pcs=np.concatenate(pcs), outcomes=np.concatenate(outcomes), name=name
    )
