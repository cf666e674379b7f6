"""Measure the detailed-registry speedup on the Section-4 sweeps.

One measurement wave: a cold scalar-pin vs registry comparison of the
full detailed (Section-4 per-access attribution) pipeline over a
multi-scheme grid — one representative spec per detailed kernel
implementation (bimodal, the two-level family, agree, gskew,
tournament, tri-mode, YAGS, perceptron, the bias filter and the
statics) plus the fused gshare/bi-mode pair — across the CINT95 suite.

Engines:

* **scalar** — ``REPRO_KERNEL=scalar``: every cell through the
  per-branch ``simulate_detailed`` loop, the only Section-4 path the
  ported schemes had before their detailed kernels landed;
* **registry** — ``REPRO_KERNEL=auto``: ``detailed_matrix``
  groups the grid into per-scheme families and each family runs its
  batch attribution kernel (compiled sequential loops when a C compiler
  exists, counter-major numpy otherwise), sharing precomputed history
  streams within the family.

Cells are compact Section-4 summary dicts (per-class breakdown, bias
areas, aliasing/sharing, class changes) and are asserted **JSON-exact**
cell by cell — a kernel that predicts correctly but charges the wrong
counter fails the run.  Every spec is additionally replayed against the
dict-based oracle on a power-on prefix of its trace
(``$REPRO_KERNEL_ORACLE_N`` branches, default 20 000), comparing
predictions *and* per-access counter ids bit for bit.  Rows are
appended to ``results/sweep_speedup.csv`` under the ``detailed grid``
prefix; the summary lands in ``results/BENCH_detailed_registry.json``.

Not a pytest file on purpose — timing cold sweeps back-to-back is an
explicit measurement run::

    PYTHONPATH=src:. REPRO_BENCH_SCALE=0.1 python benchmarks/measure_detailed_registry.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import ascii_table, bench_scale, load_bench_suite, results_dir
from benchmarks.measure_kernel_registry import _append_speedup_rows, _env
from repro.core.registry import make_predictor
from repro.sim.engine import run_detailed
from repro.sim.fused import plan_families
from repro.sim.parallel import detailed_matrix
from repro.verify.oracle import oracle_detailed, oracle_supports_detailed

SPEEDUP_GATE = 5.0
PREFIX = "detailed grid"

#: One spec per detailed kernel implementation plus the fused pair —
#: every scheme family the planner can produce appears in the sweep.
GRID = [
    "gshare:index=10,hist=10",
    "bimode:dir=9,hist=9,choice=8",
    "bimodal:index=10",
    "pag:hist=6,bht=6",
    "gselect:hist=5,addr=5",
    "agree:index=10,hist=8,bias=10",
    "gskew:bank=8,hist=8",
    "tournament:index=9,meta=9",
    "trimode:dir=8,hist=6,choice=7",
    "yags:choice=9,cache=7,hist=7,tag=6",
    "perceptron:index=7,hist=10",
    "biasfilter:table=9,run=2,sub_index=9,sub_hist=7",
    "btfnt",
]


def measure_detailed_sweep():
    """Scalar-pin vs registry dispatch of the Section-4 grid.

    Returns ``(rows, summary, mismatches)`` in the shape of the other
    measurement scripts: CSV rows for ``sweep_speedup.csv``, the
    ``BENCH_detailed_registry.json`` payload, and the total count of
    diverging cells (0 required).
    """
    specs = list(GRID)
    traces = load_bench_suite("cint95")
    families = plan_families(specs)

    # Warm pass: one tiny registry evaluation pays the one-time C
    # driver build and imports outside the timed sweeps.
    warm = {"warm": next(iter(traces.values()))[:2_000]}
    with _env(REPRO_KERNEL=None):
        detailed_matrix([specs[0], specs[-1]], warm, jobs=1)

    with _env(REPRO_KERNEL="scalar"):
        t0 = time.perf_counter()
        scalar = detailed_matrix(specs, traces, jobs=1)
        scalar_s = time.perf_counter() - t0

    with _env(REPRO_KERNEL=None):
        t0 = time.perf_counter()
        registry = detailed_matrix(specs, traces, jobs=1)
        registry_s = time.perf_counter() - t0

    mismatches = 0
    for spec in specs:
        for bench in traces:
            want = json.dumps(scalar[spec][bench], sort_keys=True)
            got = json.dumps(registry[spec][bench], sort_keys=True)
            if want != got:
                mismatches += 1
                print(f"MISMATCH {spec} on {bench}: summaries differ")

    # Dict-based oracle, every spec, power-on prefix: predictions AND
    # per-access counter ids.
    oracle_n = int(os.environ.get("REPRO_KERNEL_ORACLE_N", "20000"))
    oracle_cells = oracle_mismatches = 0
    for bench, trace in traces.items():
        prefix = trace[:oracle_n]
        for spec in specs:
            assert oracle_supports_detailed(spec), spec
            o_preds, o_ids = oracle_detailed(spec, prefix)
            with _env(REPRO_KERNEL=None):
                detailed = run_detailed(make_predictor(spec), prefix)
            oracle_cells += 1
            if not (
                np.array_equal(detailed.result.predictions, o_preds)
                and np.array_equal(detailed.counter_ids, o_ids)
            ):
                oracle_mismatches += 1
                print(f"MISMATCH oracle {spec} on {bench} (n={len(prefix)})")

    speedup = scalar_s / registry_s if registry_s else float("inf")
    verdict = "identical" if mismatches + oracle_mismatches == 0 else "DIVERGED"
    summary = {
        "what": "multi-scheme Section-4 grid (one spec per detailed "
                "kernel + fused gshare/bimode) x CINT95 suite: scalar "
                "simulate_detailed vs detailed kernel registry, "
                "summaries JSON-exact per cell",
        "suite": "cint95",
        "scale": bench_scale(),
        "specs": len(specs),
        "benches": len(traces),
        "cells": len(specs) * len(traces),
        "families": [
            {"kind": family.kind, "specs": len(family)} for family in families
        ],
        "scalar_s": round(scalar_s, 3),
        "registry_s": round(registry_s, 3),
        "speedup": round(speedup, 2),
        "gate": f">= {SPEEDUP_GATE}x, summaries JSON-exact per cell",
        "summaries_identical": mismatches == 0,
        "oracle": {
            "prefix_branches": oracle_n,
            "cells_checked": oracle_cells,
            "predictions_and_counter_ids_identical": oracle_mismatches == 0,
        },
    }
    rows = [
        [f"{PREFIX} scalar engine (REPRO_KERNEL=scalar)",
         f"{scalar_s:.2f}", "1.00x", verdict],
        [f"{PREFIX} detailed registry (REPRO_KERNEL=auto)",
         f"{registry_s:.2f}", f"{speedup:.2f}x", verdict],
    ]
    return rows, summary, mismatches + oracle_mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    rows, summary, mismatches = measure_detailed_sweep()
    print()
    print(ascii_table(
        ["path", "seconds", "speedup", "summaries"],
        rows,
        title="detailed registry: Section-4 grid sweep",
    ))
    path = _append_speedup_rows(rows, PREFIX)
    print(f"[appended to {path}]")
    bench_path = results_dir() / "BENCH_detailed_registry.json"
    bench_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"[written {bench_path}]")
    if mismatches:
        print(f"FAILED: {mismatches} diverging cell(s)")
        return 1
    if summary["speedup"] < SPEEDUP_GATE:
        print(f"BELOW TARGET: {summary['speedup']}x < {SPEEDUP_GATE}x")
        return 2
    print(f"OK: {summary['speedup']}x >= {SPEEDUP_GATE}x, all cells identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
