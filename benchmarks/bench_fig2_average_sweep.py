"""Figure 2 — averaged misprediction vs predictor size.

Regenerates both panels of the paper's Figure 2: misprediction rate
averaged over SPEC CINT95 (left) and IBS-Ultrix (right) for
gshare.1PHT, gshare.best (exhaustive history-length search per size,
best-on-average as in Section 3.1) and bi-mode, across the paper's
0.25 KB – 32 KB cost axis.

Shape checks (paper Section 3.3):

* bi-mode's curve sits below gshare.best, which sits at or below
  gshare.1PHT, at (essentially) every size on both averages;
* every curve is monotone-ish decreasing with size;
* at the large end, bi-mode reaches a given misprediction rate at a
  substantially smaller cost than gshare ("less than half the size"
  in the paper; we check a conservative 0.75 factor).

Every cell routes through the kernel registry: the gshare and bi-mode
families each advance in one fused pass per trace
(:mod:`repro.sim.fused`); the ``rates`` workload of ``perfbench/``
times that path end to end.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    PAPER_EXPECTED,
    bench_jobs,
    emit_table,
    load_bench_suite,
    result_cache,
    sweep_journal,
)
from repro.analysis.report import ascii_chart
from repro.analysis.sweep import paper_sweep
from repro.core.hardware import PAPER_SIZE_POINTS_KB


def _run_suite(suite_name: str):
    traces = load_bench_suite(suite_name)
    return paper_sweep(
        traces,
        kb_points=PAPER_SIZE_POINTS_KB,
        cache=result_cache(),
        jobs=bench_jobs(),
        journal=sweep_journal(f"fig2_{suite_name}"),
    )


def _emit(suite_name: str, series):
    headers = ["scheme"] + [f"{kb:g}KB" for kb in PAPER_SIZE_POINTS_KB]
    rows = []
    for label, sweep in series.items():
        rows.append(
            [label] + [f"{100 * point.average:.2f}%" for point in sweep.points]
        )
    emit_table(
        f"fig2_{suite_name}_average",
        f"Figure 2 — {suite_name.upper()}-AVERAGE misprediction vs size "
        "(bi-mode plotted at its true 1.5x cost)",
        headers,
        rows,
    )
    chart = {
        label: [(point.size_kb, point.average) for point in sweep.points]
        for label, sweep in series.items()
    }
    print(ascii_chart(chart, title=f"{suite_name.upper()}-AVERAGE"))
    best_specs = [point.spec for point in series["gshare.best"].points]
    print("gshare.best configurations:", ", ".join(best_specs))


def _check_shape(series):
    one_pht = series["gshare.1PHT"].averages()
    best = series["gshare.best"].averages()
    bimode = series["bi-mode"].averages()

    # gshare.best <= gshare.1PHT by construction (search includes 1PHT)
    assert all(b <= o + 1e-12 for b, o in zip(best, one_pht))
    # bi-mode below gshare.best from 1KB up (the sub-1KB points are
    # near-ties in the paper as well) and on a clear majority overall
    assert all(bm < b for bm, b in zip(bimode[2:], best[2:])), (bimode, best)
    wins = sum(bm < b for bm, b in zip(bimode, best))
    assert wins >= len(bimode) - 2, (bimode, best)
    # bi-mode strictly below gshare.1PHT everywhere
    assert all(bm < o for bm, o in zip(bimode, one_pht))
    # curves trend downward: last point clearly better than first
    for values in (one_pht, best, bimode):
        assert values[-1] < values[0]

    # cost-effectiveness: the bi-mode point at label-size 8KB (true cost
    # 12 KB) should beat the 16 KB and 32 KB gshare.best points
    assert bimode[5] < best[6] + 1e-12
    assert bimode[5] < best[7] + 1e-12


@pytest.mark.benchmark(group="fig2")
def test_fig2_cint95_average(benchmark):
    series = benchmark.pedantic(_run_suite, args=("cint95",), rounds=1, iterations=1)
    _emit("cint95", series)
    _check_shape(series)
    lo, hi = 0.5 * PAPER_EXPECTED["cint95_avg_8kb"][2], 3.0 * PAPER_EXPECTED["cint95_avg_8kb"][0]
    assert lo / 100 < series["bi-mode"].averages()[5] < hi / 100


@pytest.mark.benchmark(group="fig2")
def test_fig2_ibs_average(benchmark):
    series = benchmark.pedantic(_run_suite, args=("ibs",), rounds=1, iterations=1)
    _emit("ibs", series)
    _check_shape(series)
