"""Substream bias analysis (paper Section 4.1–4.2).

The paper's analytical lens: the index function divides the dynamic
branch stream into *substreams* ``s_ij`` — the outcomes of static branch
``i`` that arrive at prediction counter ``j``.  Each substream is
classified by its taken rate:

* **ST** — strongly taken: taken >= 90 % of the time;
* **SNT** — strongly not-taken: taken <= 10 %;
* **WB** — weakly biased: everything else.

Per counter ``c`` the *normalized count* of a substream is its length
divided by the total accesses to ``c`` (Table 3).  The more frequent of
the two strong classes at a counter is its **dominant** class; the other
is **non-dominant**.  A good index function makes the WB area small
(enough history) *and* the non-dominant area small (no destructive
aliasing) — the paper's Figures 5 and 6 visualize exactly these areas,
which :func:`counter_bias_table` computes from a detailed simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.interfaces import DetailedSimulation, SubstreamGrouping

__all__ = [
    "ST",
    "SNT",
    "WB",
    "CLASS_NAMES",
    "BIAS_THRESHOLD",
    "THRESHOLD_EPS",
    "classify_rate",
    "SubstreamAnalysis",
    "analyze_substreams",
    "pc_code_stream",
    "counter_bias_table",
    "normalized_counts",
]

#: Bias-class codes (array-friendly small ints).
SNT = 0
ST = 1
WB = 2
CLASS_NAMES = {SNT: "SNT", ST: "ST", WB: "WB"}

#: The paper's strong-bias boundary: taken >= 90 % (ST) or <= 10 % (SNT).
BIAS_THRESHOLD = 0.9

#: Tolerance on the strong-bias boundaries, shared by the scalar
#: classifier and the vectorized one in :func:`analyze_substreams` so a
#: rate landing exactly on 0.9 / 0.1 can never classify differently
#: between the two paths.
THRESHOLD_EPS = 1e-12


def classify_rate(taken_rate: float, threshold: float = BIAS_THRESHOLD) -> int:
    """Bias class of a substream with the given taken rate."""
    if not 0.0 <= taken_rate <= 1.0:
        raise ValueError(f"taken_rate must be in [0, 1], got {taken_rate}")
    if taken_rate >= threshold - THRESHOLD_EPS:
        return ST
    if taken_rate <= (1.0 - threshold) + THRESHOLD_EPS:
        return SNT
    return WB


@dataclass
class SubstreamAnalysis:
    """Substream decomposition of one detailed simulation (or of the
    substream grouping a compiled detailed loop emitted).

    Streams are the distinct ``(static branch, counter)`` pairs observed;
    arrays below are parallel, one entry per stream.  How the streams
    are numbered depends on the producer (a compiled loop's first-seen
    order, or ascending (counter, pc) from the no-compiler reference
    grouping); every Section-4 reduction is a count or an exact integer
    sum over streams or counters, so none depends on it.

    Attributes
    ----------
    stream_counter:
        Counter id of each stream.
    stream_pc:
        Static branch PC of each stream.
    stream_total / stream_taken / stream_mispredicted:
        Outcome counts of each stream.
    stream_class:
        Bias class (``SNT``/``ST``/``WB``) of each stream.
    access_stream:
        For every dynamic branch, the int32 index of its stream (maps
        per-access data onto stream attributes).
    num_counters:
        Size of the counter id space.
    counter_dominant:
        Per counter id, the dominant strong class (``ST`` or ``SNT``);
        ``-1`` for counters never accessed.  Ties break toward ST.
        Derived from the tallies below when not given.
    counter_streams / counter_total / counter_st / counter_snt:
        Per counter id, computed once at construction (as is
        :meth:`stream_role`): its number of streams, and the dynamic
        accesses of all its streams, of its ST streams and of its SNT
        streams (float64, integer-valued).
    """

    stream_counter: np.ndarray
    stream_pc: np.ndarray
    stream_total: np.ndarray
    stream_taken: np.ndarray
    stream_mispredicted: np.ndarray
    stream_class: np.ndarray
    access_stream: np.ndarray
    num_counters: int
    counter_dominant: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        counter, size = self.stream_counter, self.num_counters
        total = self.stream_total.astype(np.float64)
        self.counter_streams = np.bincount(counter, minlength=size)
        self.counter_total = np.bincount(counter, weights=total, minlength=size)
        self.counter_st = np.bincount(
            counter, weights=np.where(self.stream_class == ST, total, 0.0), minlength=size
        )
        self.counter_snt = np.bincount(
            counter, weights=np.where(self.stream_class == SNT, total, 0.0), minlength=size
        )
        if self.counter_dominant is None:
            dominant = np.where(self.counter_st >= self.counter_snt, ST, SNT)
            self.counter_dominant = np.where(
                self.counter_streams > 0, dominant, -1
            ).astype(np.int8)
        cls = self.stream_class
        self._role = np.where(
            cls == WB, 2, np.where(cls == self.counter_dominant[counter], 0, 1)
        ).astype(np.int8)

    @property
    def num_streams(self) -> int:
        return len(self.stream_counter)

    def stream_role(self) -> np.ndarray:
        """Per stream: 0=dominant, 1=non-dominant, 2=WB (w.r.t. its counter)."""
        return self._role

    def access_class(self) -> np.ndarray:
        """Bias class of every dynamic branch's substream."""
        return self.stream_class[self.access_stream]

    def access_role(self) -> np.ndarray:
        """Dominance role of every dynamic branch's substream."""
        return self.stream_role()[self.access_stream]


def pc_code_stream(pcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(unique_pcs, dense_codes)`` of a PC stream.

    ``dense_codes[t]`` is the rank of ``pcs[t]`` among the sorted
    distinct PCs — the static-branch half of every substream key.  The
    pair depends only on the trace, so sweeps running many predictor
    configurations over one trace compute it once and pass it to
    :func:`analyze_substreams` for every cell.

    The compiled driver codes 64-bit PCs with one first-seen hash pass
    and sorts only the distinct PCs; ``np.unique`` is the bit-identical
    fallback (other dtypes, ``REPRO_NO_CC=1`` or no compiler).
    """
    from repro.sim import _cstep

    pcs = np.asarray(pcs)
    if pcs.dtype in (np.int64, np.uint64) and _cstep.available():
        return _cstep.pc_codes(np.ascontiguousarray(pcs))
    unique_pcs, dense = np.unique(pcs, return_inverse=True)
    return unique_pcs, np.ascontiguousarray(dense, dtype=np.int32)


def analyze_substreams(
    detailed: Union[DetailedSimulation, SubstreamGrouping],
    threshold: float = BIAS_THRESHOLD,
    pc_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SubstreamAnalysis:
    """Decompose a detailed simulation into classified substreams.

    Streams are numbered in their producer's order.  A
    :class:`~repro.core.interfaces.SubstreamGrouping` (what the gshare
    and bi-mode loops emit in sweeps) already holds every stream's
    counts, and its first-seen ids are kept as they are.  A
    :class:`DetailedSimulation` is grouped the same way by the compiled
    first-seen pass over its counter ids; without a compiler it goes
    through the sort-based reference
    (:func:`repro.analysis.reference.analyze_substreams_reference`),
    which numbers the streams in ascending (counter, pc) order.  Every
    aggregate the Section-4 analysis reads is a count or an exact sum
    of integer counts over streams or counters, so it does not depend
    on the numbering; the equivalence suite compares the compiled path
    with the reference after renumbering both by key.  ``pc_codes``
    (from :func:`pc_code_stream`) skips the per-trace PC dictionary pass
    when the caller sweeps one trace.
    """
    if not 0.5 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0.5, 1.0], got {threshold}")
    from repro.sim import _cstep

    grouping = detailed
    if not isinstance(detailed, SubstreamGrouping):
        if detailed.pcs is None:
            raise ValueError("detailed simulation lacks per-access PCs")
        if not _cstep.available():
            from repro.analysis.reference import analyze_substreams_reference

            _cstep._require_ids(detailed.num_branches)  # int32 stream ids here too
            return analyze_substreams_reference(detailed, threshold)
        grouping = _cstep.substream_group(
            np.ascontiguousarray(detailed.counter_ids, dtype=np.int64),
            pc_codes if pc_codes is not None else pc_code_stream(detailed.pcs),
            np.ascontiguousarray(detailed.result.outcomes, dtype=bool),
            np.ascontiguousarray(detailed.result.mispredicted, dtype=bool),
            detailed.num_counters,
        )
    records = grouping.streams
    stream_counter = grouping.stream_counter
    rates = records["taken"] / records["total"]
    stream_class = np.full(len(stream_counter), WB, dtype=np.int8)
    stream_class[rates >= threshold - THRESHOLD_EPS] = ST
    stream_class[rates <= (1.0 - threshold) + THRESHOLD_EPS] = SNT
    return SubstreamAnalysis(
        stream_counter=stream_counter,
        stream_pc=grouping.unique_pcs[grouping.stream_pc_code],
        stream_total=records["total"],
        stream_taken=records["taken"],
        stream_mispredicted=records["miss"],
        stream_class=stream_class,
        access_stream=grouping.access_stream,
        num_counters=grouping.num_counters,
    )


def normalized_counts(analysis: SubstreamAnalysis, counter: int) -> dict:
    """Table-3 style normalized counts for one counter.

    Returns ``{pc: (normalized_count, class_name)}`` for every substream
    incident on ``counter``.

    >>> # the paper's Table 3: four branches sharing counter c
    >>> import numpy as np
    >>> from repro.core.interfaces import DetailedSimulation, SimulationResult
    >>> pcs = [0x001]*12 + [0x005]*20 + [0x100]*8 + [0x150]*10
    >>> taken = [True]*11 + [False]*1 + [True]*1 + [False]*19 \\
    ...     + [True]*3 + [False]*5 + [True]*1 + [False]*9
    >>> detailed = DetailedSimulation(
    ...     result=SimulationResult("p", "t", np.zeros(50, bool), np.array(taken)),
    ...     counter_ids=np.zeros(50, int), num_counters=1, pcs=np.array(pcs))
    >>> counts = normalized_counts(analyze_substreams(detailed), 0)
    >>> counts[0x001]
    (0.24, 'ST')
    >>> counts[0x005]
    (0.4, 'SNT')
    >>> counts[0x100]
    (0.16, 'WB')
    >>> counts[0x150]
    (0.2, 'SNT')
    """
    members = analysis.stream_counter == counter
    total = analysis.stream_total[members].sum()
    if total == 0:
        return {}
    return {
        int(pc): (float(n / total), CLASS_NAMES[int(cls)])
        for pc, n, cls in zip(
            analysis.stream_pc[members],
            analysis.stream_total[members],
            analysis.stream_class[members],
        )
    }


def counter_bias_table(analysis: SubstreamAnalysis, sort_by_wb: bool = True) -> np.ndarray:
    """Figure 5/6 data: per accessed counter, the normalized dynamic
    counts of its dominant, non-dominant and WB substream groups.

    Returns an array of shape ``(accessed_counters, 3)`` with columns
    ``[dominant, non_dominant, wb]`` summing to 1 per row, sorted (by
    default) by ascending WB share — the x-axis ordering of the paper's
    figures.
    """
    st, snt = analysis.counter_st, analysis.counter_snt
    dominant_is_st = analysis.counter_dominant == ST
    columns = [
        np.where(dominant_is_st, st, snt),
        np.where(dominant_is_st, snt, st),
        analysis.counter_total - st - snt,
    ]
    table = np.stack(columns, axis=1)
    totals = analysis.counter_total
    accessed = totals > 0
    table = table[accessed] / totals[accessed, None]
    if sort_by_wb:
        order = np.argsort(table[:, 2], kind="stable")
        table = table[order]
    return table
