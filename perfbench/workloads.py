"""The four benchmark workloads: inputs, sweep call, output digest.

Each workload is one call into a public sweep entry point of
``repro`` over generated traces.  Trace lengths follow the figure
benches' rule (``max(20 000, default_length * scale)``) and the trace
seed is the benchmark's ``--seed``, so the program only ever sees
generated inputs.

* ``rates`` — Figs 2–4: :func:`repro.analysis.sweep.paper_sweep` once
  per suite (the paper picks gshare.best per suite average), 124 specs
  over all 14 CINT95 + IBS traces at scale 1.0.
* ``dealiasing`` — the Section-5 comparison grid of
  ``benchmarks/bench_compare_dealiasing.py`` (27 specs) over CINT95
  through :func:`repro.sim.runner.evaluate_matrix`.
* ``section4`` — the union of the Fig 5/6/7/8 and Table-4 specs
  (12 specs) on gcc and go at the 4x detailed length through
  :func:`repro.sim.parallel.detailed_matrix`.
* ``no-cc`` — the ``rates`` grid at scale 0.1 with ``REPRO_NO_CC=1``:
  no C code runs, neither in the kernels nor in trace generation.

The grids are copied here rather than imported from the bench files so
that editing a figure bench never silently changes a workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

#: Extra length factor of the Section-4 benches (``REPRO_DETAILED_SCALE``).
DETAILED_SCALE = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    suites: Tuple[Tuple[str, Tuple[str, ...]], ...]  # ((suite, benches), ...)
    scale: float
    specs: Callable[[], List[str]]
    sweep: Callable  # (traces_by_suite, cache, journal_dir or None) -> output
    cells: Callable  # (output, cache, traces_by_suite) -> {(suite, spec, bench): value}
    entry: str  # "rates" (evaluate_matrix) or "detailed" (detailed_matrix)
    points: Optional[Callable] = None  # output -> records of the assembled curves


def _suite(name: str) -> Tuple[str, ...]:
    from repro.workloads.suite import suite_names

    return tuple(suite_names(name))


def trace_length(bench: str, scale: float) -> int:
    from repro.workloads.profiles import get_profile

    return max(20_000, int(get_profile(bench).default_length * scale))


# -- grids ---------------------------------------------------------------------


def paper_grid() -> List[str]:
    """Every spec one ``paper_sweep`` evaluates (Figs 2–4): 124 specs."""
    from repro.analysis.sweep import bimode_spec, gshare_1pht_spec, gshare_spec
    from repro.core.hardware import PAPER_SIZE_POINTS_KB, HardwareBudget

    specs: List[str] = []
    for kb in PAPER_SIZE_POINTS_KB:
        bits = HardwareBudget(kb).index_bits
        specs.append(gshare_1pht_spec(kb))
        specs.extend(gshare_spec(bits, h) for h in range(bits + 1))
        specs.append(bimode_spec(kb))
    return list(dict.fromkeys(specs))


def dealiasing_grid() -> List[str]:
    """``bench_compare_dealiasing``: nine schemes at 2^10, 2^12, 2^14."""
    specs = []
    for n in (10, 12, 14):
        specs += [
            f"gshare:index={n},hist={n}",
            f"bimode:dir={n - 1},hist={n - 1},choice={n - 1}",
            f"agree:index={n},hist={n}",
            f"gskew:bank={n - 1},hist={n - 1}",
            f"yags:choice={n},cache={n - 2},hist={n - 2},tag=6",
            f"tournament:index={n - 1},meta={n - 1}",
            f"trimode:dir={n - 1},hist={n - 1},choice={n - 1}",
            f"biasfilter:table={n},run=3,sub_index={n},sub_hist={n}",
            f"perceptron:index={max(0, n - 4)},hist=12",
        ]
    return specs


def section4_grid() -> List[str]:
    """Union of the Fig 5/6/7/8 and Table-4 specs: 12 specs."""
    specs = [
        "gshare:index=8,hist=8",  # Figs 5/6 history-indexed
        "gshare:index=8,hist=2",  # Figs 5/6 address-indexed
        "bimode:dir=7,hist=7,choice=7",  # Fig 6
    ]
    for bits, few in ((8, 2), (10, 4), (15, 9)):  # Figs 7/8
        specs += [
            f"gshare:index={bits},hist={few}",
            f"gshare:index={bits},hist={bits}",
            f"bimode:dir={bits - 1},hist={bits - 1},choice={bits - 2}",
        ]
    specs += ["gshare:index=12,hist=12", "bimode:dir=11,hist=11,choice=11"]  # Table 4
    return list(dict.fromkeys(specs))


# -- sweep calls ---------------------------------------------------------------


def _rate_journal(journal_dir: Optional[Path], stem: str):
    from repro.sim.journal import SweepJournal

    return SweepJournal(journal_dir / f"{stem}.jsonl") if journal_dir else None


def _paper_sweeps(traces_by_suite, cache, journal_dir):
    from repro.analysis.sweep import paper_sweep

    return {
        suite: paper_sweep(
            traces, cache=cache, jobs=1, journal=_rate_journal(journal_dir, suite)
        )
        for suite, traces in traces_by_suite.items()
    }


def _dealiasing_sweep(traces_by_suite, cache, journal_dir):
    from repro.sim.runner import evaluate_matrix

    (traces,) = traces_by_suite.values()
    return evaluate_matrix(
        dealiasing_grid(),
        traces,
        cache=cache,
        jobs=1,
        journal=_rate_journal(journal_dir, "dealiasing"),
    )


def _section4_sweep(traces_by_suite, cache, journal_dir):
    from repro.sim.journal import PayloadJournal
    from repro.sim.parallel import detailed_matrix

    (traces,) = traces_by_suite.values()
    return detailed_matrix(
        section4_grid(),
        traces,
        cache=cache,
        jobs=1,
        journal=PayloadJournal(journal_dir / "detailed.jsonl") if journal_dir else None,
    )


# -- outputs -------------------------------------------------------------------

#: Value recorded for a cell the sweep did not return (quarantined).
MISSING = "missing"


def _cached_cells(out, cache, traces_by_suite) -> dict:
    """Every (suite, spec, bench) cell's exact rate, read back from the
    sweep's result cache: ``paper_sweep`` returns only the chosen points."""
    from repro.sim.runner import trace_key

    specs = paper_grid()
    cells = {}
    for suite, traces in traces_by_suite.items():
        for bench, trace in traces.items():
            tkey = trace_key(trace)
            for spec in specs:
                rate = cache.get(spec, tkey)
                cells[suite, spec, bench] = None if rate is None else float(rate).hex()
    return cells


def _series_points(out) -> list:
    """Every point of every curve: (suite, curve, spec, bench, exact rate)."""
    return sorted(
        (suite, label, point.spec, bench, float(rate).hex())
        for suite, series in out.items()
        for label, curve in series.items()
        for point in curve.points
        for bench, rate in point.per_benchmark.items()
    )


def _returned_cells(out, traces_by_suite, specs: List[str], encode) -> dict:
    """Every (suite, spec, bench) cell of the grid as the sweep returned it."""
    ((suite, traces),) = traces_by_suite.items()
    return {
        (suite, spec, bench): encode(out[spec][bench]) if bench in out.get(spec, {}) else None
        for spec in specs
        for bench in traces
    }


def _matrix_cells(out, cache, traces_by_suite) -> dict:
    return _returned_cells(out, traces_by_suite, dealiasing_grid(), lambda r: float(r).hex())


def _summary_cells(out, cache, traces_by_suite) -> dict:
    # summaries round-trip through JSON exactly (repr floats)
    return _returned_cells(
        out, traces_by_suite, section4_grid(), lambda s: json.dumps(s, sort_keys=True)
    )


def digest(workload: Workload, out, cache, traces_by_suite) -> Tuple[str, int]:
    """Hash of every simulated output of one sweep call, and the number of
    the workload's cells the sweep did not return.

    Every cell of the workload's grid is hashed: ``rates`` and ``no-cc``
    cells come from the result cache the sweep wrote (read before the
    cache is removed), the other workloads' from the returned matrix.
    """
    cells = workload.cells(out, cache, traces_by_suite)
    records = sorted((*cell, MISSING if value is None else value) for cell, value in cells.items())
    if workload.points is not None:
        records += workload.points(out)
    blob = json.dumps(records, separators=(",", ":"))
    missing = sum(value is None for value in cells.values())
    return hashlib.sha256(blob.encode()).hexdigest()[:16], missing


def paper_gap_pp(out) -> float:
    """Mean |reproduced - paper| of the Fig-2 suite averages, in points.

    Compares gshare.1PHT, gshare.best and bi-mode at 1 KB and 8 KB on
    both suites with ``PAPER_EXPECTED`` of the figure benches.
    """
    from benchmarks.common import PAPER_EXPECTED
    from repro.core.hardware import PAPER_SIZE_POINTS_KB

    gaps = []
    for suite, series in out.items():
        for kb in (1.0, 8.0):
            expected = PAPER_EXPECTED[f"{suite}_avg_{kb:g}kb"]
            index = PAPER_SIZE_POINTS_KB.index(kb)
            for label, want in zip(("gshare.1PHT", "gshare.best", "bi-mode"), expected):
                got = 100.0 * series[label].points[index].average
                gaps.append(abs(got - want))
    return sum(gaps) / len(gaps)


def _rates_workload(name: str, scale: float) -> Workload:
    return Workload(
        name=name,
        suites=(("cint95", _suite("cint95")), ("ibs", _suite("ibs"))),
        scale=scale,
        specs=paper_grid,
        sweep=_paper_sweeps,
        cells=_cached_cells,
        entry="rates",
        points=_series_points,
    )


def workload(name: str) -> Workload:
    if name == "rates":
        return _rates_workload("rates", 1.0)
    if name == "no-cc":
        return _rates_workload("no-cc", 0.1)  # REPRO_NO_CC=1: run.worker_env
    if name == "dealiasing":
        return Workload(
            name=name,
            suites=(("cint95", _suite("cint95")),),
            scale=1.0,
            specs=dealiasing_grid,
            sweep=_dealiasing_sweep,
            cells=_matrix_cells,
            entry="rates",
        )
    if name == "section4":
        return Workload(
            name=name,
            suites=(("detailed", ("gcc", "go")),),
            scale=DETAILED_SCALE,
            specs=section4_grid,
            sweep=_section4_sweep,
            cells=_summary_cells,
            entry="detailed",
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("rates", "dealiasing", "section4", "no-cc")
