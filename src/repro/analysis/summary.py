"""Compact Section-4 aggregates of one detailed simulation.

The parallel detailed pipeline (:func:`repro.sim.parallel.
detailed_matrix`) runs the per-access attribution kernels *inside*
worker processes.  Shipping the per-branch arrays back to the parent
would cost tens of megabytes per cell, so workers reduce each detailed
simulation to this module's :func:`summarize_detailed` payload first —
every aggregate the Section-4 benches and CLI commands consume
(misprediction breakdown, bias areas, WB dynamic share, aliasing and
sharing decompositions, class-change counts), a few kilobytes of plain
JSON-serializable data.

Payloads round-trip through JSON exactly (repr floats, int counts,
lists), so a summary resumed from the sweep journal is equal to a
freshly computed one and resumed benches stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.analysis.aliasing import AliasingStats, SharingDecomposition, aliasing_stats, sharing_decomposition
from repro.analysis.bias import (
    BIAS_THRESHOLD,
    WB,
    SubstreamAnalysis,
    analyze_substreams,
    counter_bias_table,
)
from repro.analysis.breakdown import misprediction_breakdown
from repro.analysis.interference import ClassChangeCounts, count_class_changes
from repro.core.interfaces import DetailedSimulation, SubstreamGrouping

__all__ = ["summarize_detailed", "bias_areas", "build_summary"]


def bias_areas(table: np.ndarray) -> Dict[str, float]:
    """Mean dominant / non-dominant / WB shares of a bias table."""
    if len(table) == 0:
        return {"dominant": 0.0, "non_dominant": 0.0, "wb": 0.0}
    return {
        "dominant": float(table[:, 0].mean()),
        "non_dominant": float(table[:, 1].mean()),
        "wb": float(table[:, 2].mean()),
    }


def build_summary(
    detailed: Union[DetailedSimulation, SubstreamGrouping],
    analysis: SubstreamAnalysis,
    table: np.ndarray,
    alias: AliasingStats,
    sharing: SharingDecomposition,
    changes: ClassChangeCounts,
    include_bias_table: bool = False,
) -> dict:
    """Assemble the summary payload from precomputed aggregates.

    Shared by :func:`summarize_detailed` and the reference baseline
    (:mod:`repro.analysis.reference`), so the two can never drift in
    payload shape.
    """
    breakdown = misprediction_breakdown(analysis)
    total = int(analysis.stream_total.sum())
    wb_dynamic = (
        float(analysis.stream_total[analysis.stream_class == WB].sum() / total)
        if total
        else 0.0
    )
    summary = {
        "num_branches": int(detailed.num_branches),
        "num_counters": int(detailed.num_counters),
        "misprediction_rate": float(detailed.misprediction_rate),
        "breakdown": {
            "overall": float(breakdown.overall),
            "snt": float(breakdown.snt),
            "st": float(breakdown.st),
            "wb": float(breakdown.wb),
        },
        "bias_areas": bias_areas(table),
        "wb_dynamic_share": wb_dynamic,
        "num_streams": int(analysis.num_streams),
        "aliasing": {
            "counters_used": int(alias.counters_used),
            "aliased_counters": int(alias.aliased_counters),
            "destructive_counters": int(alias.destructive_counters),
            "aliased_access_fraction": float(alias.aliased_access_fraction),
            "destructive_access_fraction": float(alias.destructive_access_fraction),
            "harmless_access_fraction": float(alias.harmless_access_fraction),
            "mean_streams_per_counter": float(alias.mean_streams_per_counter),
        },
        "sharing": {
            "streams": int(sharing.streams),
            "counters": int(sharing.counters),
            "measured_share": float(sharing.measured_share),
            "capacity_share": float(sharing.capacity_share),
            "conflict_share": float(sharing.conflict_share),
        },
        "class_changes": {
            "dominant": int(changes.dominant),
            "non_dominant": int(changes.non_dominant),
            "wb": int(changes.wb),
            "total": int(changes.total),
        },
    }
    if include_bias_table:
        summary["bias_table"] = [[float(v) for v in row] for row in table]
    return summary


def summarize_detailed(
    detailed: Union[DetailedSimulation, SubstreamGrouping],
    threshold: float = BIAS_THRESHOLD,
    include_bias_table: bool = False,
    analysis: Optional[SubstreamAnalysis] = None,
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> dict:
    """Reduce one detailed simulation to its Section-4 aggregates.

    The returned dict is JSON-serializable and carries everything the
    figure/table benches read: ``misprediction_rate``, ``breakdown``
    (Figures 7–8), ``bias_areas`` and optionally the full per-counter
    ``bias_table`` rows (Figures 5–6), ``wb_dynamic_share`` (history
    length sweep), ``aliasing`` / ``sharing`` (interference
    decomposition), and ``class_changes`` (Table 4).

    ``detailed`` may also be the substream grouping a compiled detailed
    loop emitted (:class:`~repro.core.interfaces.SubstreamGrouping`):
    its stream records carry the misprediction count, so no per-access
    prediction or counter array is needed.  ``pc_codes`` (from
    :func:`repro.analysis.bias.pc_code_stream`) lets sweeps over one
    trace amortize the PC dictionary across cells.

    The analysis (:func:`~repro.analysis.bias.analyze_substreams`)
    keeps a grouping's first-seen stream ids.  Every aggregate is a
    count or an exact sum of integer counts over streams or counters,
    so the payload is byte-identical whichever way the streams are
    numbered.
    """
    if analysis is None:
        analysis = analyze_substreams(detailed, threshold, pc_codes)
    return build_summary(
        detailed,
        analysis,
        table=counter_bias_table(analysis),
        alias=aliasing_stats(analysis),
        sharing=sharing_decomposition(analysis),
        changes=count_class_changes(detailed, analysis),
        include_bias_table=include_bias_table,
    )
