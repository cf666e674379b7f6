"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one of the paper's tables or figures:
it computes the same rows/series the paper reports (printing them and
writing CSV under ``results/``), asserts the qualitative *shape* the
paper claims, and times the heavy computation once via
``benchmark.pedantic`` so ``pytest --benchmark-only`` also reports
wall-clock costs.

Simulation cells are memoized through
:class:`repro.sim.runner.ResultCache` under the trace cache directory,
so re-running a figure after the first time is nearly free and the
figure benches share each other's cells (figure 2 averages reuse the
per-benchmark cells of figures 3 and 4).

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (traces + result cells).
* ``REPRO_BENCH_SCALE`` — float scale on trace lengths (default 1.0;
  use e.g. 0.1 for a quick smoke pass of the whole harness).
* ``REPRO_JOBS`` — worker processes for sweep-shaped benches (default
  serial; ``0``/``auto`` means one per CPU).
* ``REPRO_KERNEL`` — kernel engine pin (``auto``/``c``/``scalar``,
  default ``auto``) for every spec family of a grid
  (:mod:`repro.sim.kernels`), with ``REPRO_NO_CC=1`` vetoing the
  compiler.  The figure benches inherit it through ``evaluate_matrix``
  and ``detailed_matrix``; results are bit-identical under every pin.
* ``REPRO_RESUME`` — resume interrupted figure sweeps from their
  journal (default ``1``; set ``0`` to discard a stale journal and
  start the sweep from scratch).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.report import ascii_table, write_csv
from repro.sim.parallel import parallel_jobs
from repro.sim.runner import ResultCache
from repro.traces.record import BranchTrace
from repro.workloads.profiles import get_profile
from repro.workloads.suite import load_benchmark, suite_names

__all__ = [
    "bench_scale",
    "bench_length",
    "bench_jobs",
    "load_bench_trace",
    "detailed_scale",
    "load_detailed_trace",
    "load_bench_suite",
    "result_cache",
    "sweep_journal",
    "payload_journal",
    "detailed_summaries",
    "results_dir",
    "emit_table",
    "PAPER_EXPECTED",
]


def bench_scale() -> float:
    """Trace-length scale factor from ``$REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_jobs() -> int:
    """Sweep worker-process count from ``$REPRO_JOBS`` (default serial)."""
    return parallel_jobs(default=1)


def bench_length(name: str) -> int:
    """Benchmark trace length after scaling (min 20 K)."""
    base = get_profile(name).default_length
    return max(20_000, int(base * bench_scale()))


def load_bench_trace(name: str) -> BranchTrace:
    """The benchmark's trace at bench scale (disk-cached)."""
    return load_benchmark(name, length=bench_length(name))


def detailed_scale() -> float:
    """Extra length factor for the detailed (Section-4) figure benches.

    The batch attribution kernels make the detailed path cheap enough to
    run the bias/breakdown figures on longer traces than the rate
    sweeps; ``$REPRO_DETAILED_SCALE`` (default 4.0) multiplies on top of
    ``$REPRO_BENCH_SCALE`` for those benches only.
    """
    return float(os.environ.get("REPRO_DETAILED_SCALE", "4.0"))


def load_detailed_trace(name: str) -> BranchTrace:
    """The benchmark's trace at detailed-bench scale (disk-cached)."""
    base = get_profile(name).default_length
    length = max(20_000, int(base * bench_scale() * detailed_scale()))
    return load_benchmark(name, length=length)


def load_bench_suite(suite: str) -> Dict[str, BranchTrace]:
    """All traces of a suite (``"cint95"`` / ``"ibs"`` / ``"all"``).

    With ``$REPRO_JOBS`` > 1, cold traces are materialized into the
    store by the supervised worker pool first; warm traces are simply
    memory-mapped.
    """
    names = suite_names(suite)
    if bench_jobs() > 1:
        from repro.sim.parallel import materialize_parallel
        from repro.workloads.suite import trace_store

        store = trace_store()
        lengths = {name: bench_length(name) for name in names}
        cold = [name for name in names if not store.has(name, lengths[name], 0)]
        if len(cold) > 1:
            materialize_parallel(cold, length=lengths)
    return {name: load_bench_trace(name) for name in names}


def result_cache() -> ResultCache:
    """The shared (spec, trace) -> rate memo."""
    return ResultCache()


def _resume_disabled() -> bool:
    return os.environ.get("REPRO_RESUME", "1").strip() in ("0", "false", "no")


def sweep_journal(stem: str):
    """Crash-safe resume journal for one figure sweep.

    Keyed by the figure stem and the bench scale, so a killed sweep
    rerun at the same scale picks up exactly where it stopped
    (``$REPRO_RESUME=0`` discards the journal and starts over).
    """
    from repro.sim.journal import SweepJournal

    journal = SweepJournal.for_name(f"{stem}-scale{bench_scale():g}")
    if _resume_disabled():
        journal.discard()
    return journal


def payload_journal(stem: str):
    """Resume journal for a detailed (Section-4) analysis sweep.

    Same keying and ``$REPRO_RESUME`` behaviour as :func:`sweep_journal`,
    but cell values are summary dicts (:class:`repro.sim.journal.
    PayloadJournal`).
    """
    from repro.sim.journal import PayloadJournal

    journal = PayloadJournal.for_name(f"{stem}-detailed-scale{bench_scale():g}")
    if _resume_disabled():
        journal.discard()
    return journal


def detailed_summaries(
    specs: Sequence[str],
    traces: Dict[str, BranchTrace],
    stem: str,
    include_bias_table: bool = False,
) -> Dict[str, Dict[str, dict]]:
    """Section-4 summaries for ``specs`` x ``traces``: the benches' shared
    path into :func:`repro.sim.parallel.detailed_matrix`.

    Runs serially under the default ``$REPRO_JOBS`` and fans out across
    the supervised worker pool otherwise; either way each completed cell
    lands in the figure's payload journal, so an interrupted analysis
    bench resumes instead of re-simulating, and each cell's
    misprediction rate is fed into the shared result cache as a
    byproduct.  Quarantined cells fail the bench loudly — a figure
    computed from a partial matrix would assert against garbage.
    """
    from repro.sim.parallel import detailed_matrix

    result = detailed_matrix(
        specs,
        traces,
        cache=result_cache(),
        jobs=bench_jobs(),
        journal=payload_journal(stem),
        include_bias_table=include_bias_table,
    )
    if result.failures:
        raise RuntimeError(
            "detailed sweep quarantined cells: "
            + "; ".join(str(cell) for cell in result.failures)
        )
    return result


def results_dir() -> Path:
    """Output directory for CSV artifacts (repo-root ``results/``)."""
    root = Path(__file__).resolve().parent.parent / "results"
    root.mkdir(parents=True, exist_ok=True)
    return root


def emit_table(
    stem: str, title: str, headers: Sequence[str], rows: List[Sequence]
) -> None:
    """Print an ASCII table and write the CSV artifact."""
    print()
    print(ascii_table(headers, rows, title=title))
    path = write_csv(results_dir() / f"{stem}.csv", headers, rows)
    print(f"[written {path}]")


#: Paper-reported misprediction rates (percent), eyeballed from the
#: figures, used as *shape* references in the bench output — the
#: reproduction is not expected to match them absolutely (synthetic
#: scaled traces), only to preserve orderings and rough factors.
PAPER_EXPECTED = {
    # (figure 2) suite averages at 1 KB and 8 KB: (gshare.1PHT, gshare.best, bi-mode)
    "cint95_avg_1kb": (10.0, 9.0, 8.0),
    "cint95_avg_8kb": (8.0, 7.5, 6.5),
    "ibs_avg_1kb": (6.0, 5.0, 4.3),
    "ibs_avg_8kb": (4.0, 3.8, 3.2),
}
