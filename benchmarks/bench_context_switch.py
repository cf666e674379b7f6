"""Context-switch interference — the IBS motivation, measured.

The paper uses IBS traces precisely because they interleave kernel and
user activity: realistic workloads context-switch, and predictor state
is polluted across switches.  This bench interleaves two benchmarks'
traces at several switch periods and measures how much each scheme
degrades relative to running the workloads back to back.

Expected shapes:

* interleaving never helps; shorter periods hurt more;
* the purely per-address bimodal table is the most robust (its state
  is per-branch, and the two workloads' hot branches mostly occupy
  different slots), while long-history schemes lose the most — their
  (pc, history) working set doubles and histories cross workloads at
  every switch;
* bi-mode degrades no more than gshare (its choice predictor re-steers
  quickly after a switch).
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_length, emit_table
from repro.sim.runner import evaluate
from repro.traces.filters import interleave
from repro.workloads.suite import load_benchmark

PERIODS = [200, 2_000, 20_000]
SCHEMES = [
    ("bimodal", "bimodal:index=12"),
    ("gshare", "gshare:index=12,hist=12"),
    ("bi-mode", "bimode:dir=11,hist=11,choice=11"),
]


def _run():
    length = min(150_000, bench_length("xlisp"))
    a = load_benchmark("xlisp", length=length)
    b = load_benchmark("groff", length=length)
    out = {}
    for label, spec in SCHEMES:
        misses = sum(round(evaluate(spec, t) * len(t)) for t in (a, b))
        out[(label, "solo")] = misses / (len(a) + len(b))
        for period in PERIODS:
            merged = interleave(a, b, period=period, name=f"mix{period}")
            out[(label, period)] = evaluate(spec, merged)
    return out


@pytest.mark.benchmark(group="context-switch")
def test_context_switch_interference(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for label, _ in SCHEMES:
        solo = table[(label, "solo")]
        row = [label, f"{100 * solo:.2f}%"]
        for period in PERIODS:
            mixed = table[(label, period)]
            row.append(f"{100 * mixed:.2f}% (+{100 * (mixed - solo):.2f})")
        rows.append(row)
    emit_table(
        "context_switch",
        "Context-switch interference (xlisp x groff, switch period in branches)",
        ["scheme", "back-to-back"] + [f"every {p}" for p in PERIODS],
        rows,
    )

    for label, _ in SCHEMES:
        solo = table[(label, "solo")]
        # interleaving never helps (tolerate sub-0.1pt noise)
        for period in PERIODS:
            assert table[(label, period)] >= solo - 1e-3, (label, period)
        # shorter periods hurt at least as much as the longest
        assert table[(label, PERIODS[0])] >= table[(label, PERIODS[-1])] - 1e-3

    # bimodal's absolute degradation is the smallest of the three
    def degradation(label):
        return table[(label, PERIODS[0])] - table[(label, "solo")]

    assert degradation("bimodal") <= degradation("gshare") + 1e-3
