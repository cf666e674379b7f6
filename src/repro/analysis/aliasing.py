"""Aliasing statistics — harmless vs destructive interference.

The paper's key claim is not that bi-mode removes aliasing — at equal
size its direction banks are *smaller* than gshare's table, so more
streams share each counter — but that it "separates the destructive
aliases while keeping the harmless aliases together" (Section 2.2).
This module quantifies exactly that, on top of the substream
decomposition of :mod:`repro.analysis.bias`:

* a counter is **aliased** when substreams of more than one static
  branch use it;
* an aliased counter is **destructive** when it hosts both ST and SNT
  substreams in material amounts (opposite strong biases fighting over
  the counter — the oscillation case of the paper's Section 4).  A
  *material* amount means the minority strong class supplies at least
  ``min_minority`` of the counter's accesses, so a single stray
  misrouted access does not mark a counter destructive;
* otherwise the aliasing is **harmless** (streams agree, or only WB
  noise is involved).

:func:`sharing_decomposition` additionally splits counter sharing into
a *capacity* part (inevitable: more live streams than counters, as in
[MichaudSeznecUhlig97]'s capacity aliasing) and a *conflict* part (the
index function bunching streams more than an ideal balanced placement
would).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bias import SubstreamAnalysis

__all__ = ["AliasingStats", "SharingDecomposition", "aliasing_stats", "sharing_decomposition"]


@dataclass(frozen=True)
class AliasingStats:
    """How a predictor's counters are shared, and how harmfully.

    All ``*_fraction`` fields are fractions of *dynamic accesses*.
    """

    counters_used: int
    aliased_counters: int
    destructive_counters: int
    aliased_access_fraction: float
    destructive_access_fraction: float
    mean_streams_per_counter: float

    @property
    def harmless_access_fraction(self) -> float:
        """Accesses to aliased but non-destructive counters."""
        return self.aliased_access_fraction - self.destructive_access_fraction


def aliasing_stats(
    analysis: SubstreamAnalysis, min_minority: float = 0.05
) -> AliasingStats:
    """Aliasing summary of one detailed simulation.

    ``min_minority`` is the minimum share of a counter's accesses the
    minority strong class must contribute for the collision to count as
    destructive.
    """
    if not 0.0 <= min_minority <= 0.5:
        raise ValueError(f"min_minority must be in [0, 0.5], got {min_minority}")
    streams_per_counter = analysis.counter_streams

    # distinct static branches per counter: streams ARE the distinct
    # (counter, pc) pairs, so each counter's streams carry pairwise
    # distinct PCs and the stream count doubles as the branch count
    # (asserted against the recomputing reference implementation by the
    # equivalence suite)
    branches_per_counter = streams_per_counter

    accesses_per_counter = analysis.counter_total
    total_accesses = accesses_per_counter.sum()

    used = branches_per_counter > 0
    aliased = branches_per_counter > 1

    minority = np.minimum(analysis.counter_st, analysis.counter_snt)
    with np.errstate(invalid="ignore", divide="ignore"):
        minority_share = np.where(
            accesses_per_counter > 0, minority / np.maximum(accesses_per_counter, 1), 0.0
        )
    destructive = aliased & (minority > 0) & (minority_share >= min_minority)

    if total_accesses == 0:
        return AliasingStats(0, 0, 0, 0.0, 0.0, 0.0)
    return AliasingStats(
        counters_used=int(used.sum()),
        aliased_counters=int(aliased.sum()),
        destructive_counters=int(destructive.sum()),
        aliased_access_fraction=float(accesses_per_counter[aliased].sum() / total_accesses),
        destructive_access_fraction=float(
            accesses_per_counter[destructive].sum() / total_accesses
        ),
        mean_streams_per_counter=float(streams_per_counter[used].mean()),
    )


@dataclass(frozen=True)
class SharingDecomposition:
    """Capacity vs conflict decomposition of counter sharing.

    ``capacity_share`` is the sharing an ideally balanced placement of
    the same streams over the same counters would suffer
    (``max(0, 1 - counters/streams)`` of accesses, weighting streams
    equally); ``conflict_share`` is the measured extra.
    """

    streams: int
    counters: int
    measured_share: float  # fraction of accesses on counters with > 1 stream
    capacity_share: float

    @property
    def conflict_share(self) -> float:
        return max(0.0, self.measured_share - self.capacity_share)


def sharing_decomposition(analysis: SubstreamAnalysis) -> SharingDecomposition:
    """Split stream sharing into capacity and conflict components."""
    num_counters = analysis.num_counters
    streams_per_counter = analysis.counter_streams
    accesses_per_counter = analysis.counter_total
    total = accesses_per_counter.sum()
    if total == 0:
        return SharingDecomposition(0, num_counters, 0.0, 0.0)
    shared = streams_per_counter > 1
    measured = float(accesses_per_counter[shared].sum() / total)
    num_streams = analysis.num_streams
    # balanced placement of S streams over C counters (streams weighted
    # equally): S <= C shares nothing; S >= 2C shares everything; in
    # between, S - C counters hold two streams, so 2(S - C) of the S
    # streams sit on shared counters.
    if num_streams <= num_counters:
        capacity = 0.0
    elif num_streams >= 2 * num_counters:
        capacity = 1.0
    else:
        capacity = 2.0 * (num_streams - num_counters) / num_streams
    return SharingDecomposition(
        streams=num_streams,
        counters=num_counters,
        measured_share=measured,
        capacity_share=capacity,
    )
