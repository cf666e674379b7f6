"""Measure the kernel-registry speedup on the ported-scheme sweeps.

Two measurement waves, each a cold-cache scalar-pin vs registry
comparison over its slice of the shared ``PORTED_GRID`` matrix and the
CINT95 suite:

* **wave 1** (the PR-7 gate) — bimodal, the whole two-level family,
  agree, gskew, tournament, tri-mode and YAGS at 2-3 sizes each;
  acceptance bar >= 3x, recorded in
  ``results/BENCH_kernel_registry.json``;
* **wave 2** (the SCALAR_ONLY retirement gate) — perceptron, the bias
  filter over its gshare/bimodal sub-predictors, and the three static
  schemes; acceptance bar >= 5x, recorded in
  ``results/BENCH_kernel_registry2.json``.

Engines per wave:

* **scalar** — ``REPRO_KERNEL=scalar``: every cell through the scalar
  per-branch engine, the only path these schemes had before their
  kernels landed;
* **registry** — ``REPRO_KERNEL=auto``: the fused planner groups the
  grid into per-scheme families and each family runs its lane kernel
  (compiled counter/step loops when a C compiler exists, numpy lanes
  otherwise).

Rates are asserted bit-identical cell by cell, and every cell is
additionally checked against the differential oracle *and* the scalar
engine on a power-on prefix of its trace (``$REPRO_KERNEL_ORACLE_N``
branches, default 20 000).  Rows are appended to
``results/sweep_speedup.csv`` under a per-wave prefix.

Not a pytest file on purpose — timing cold sweeps back-to-back is an
explicit measurement run::

    PYTHONPATH=src:. REPRO_BENCH_SCALE=0.1 python benchmarks/measure_kernel_registry.py --wave 2
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import ascii_table, bench_scale, load_bench_suite, results_dir
from repro.core.registry import make_predictor
from repro.sim.engine import run
from repro.sim.fused import plan_families
from repro.sim.runner import ResultCache, evaluate_matrix, evaluate_specs
from repro.verify.oracle import oracle_rate
from tests.conftest import PORTED_GRID

SPEEDUP_GATE = 3.0
SPEEDUP_GATE2 = 5.0

#: The second measurement wave: the schemes that retired SCALAR_ONLY.
SECOND_WAVE_SCHEMES = frozenset(
    {"perceptron", "biasfilter", "always-taken", "always-not-taken", "btfnt"}
)

#: The paper's own schemes, batched before either wave and measured by
#: the sweep benchmarks instead.
PAPER_SCHEMES = frozenset({"gshare", "bimode"})

WAVES = {
    "1": {
        "specs": [
            s for s in PORTED_GRID
            if s.split(":", 1)[0] not in SECOND_WAVE_SCHEMES | PAPER_SCHEMES
        ],
        "gate": SPEEDUP_GATE,
        "prefix": "ported-scheme grid",
        "json": "BENCH_kernel_registry.json",
        "what": "ported-scheme grid (bimodal/two-level/agree/gskew/"
                "tournament/trimode/yags, 2-3 sizes each) x CINT95 "
                "suite, cold cache: scalar engine vs kernel registry",
    },
    "2": {
        "specs": [
            s for s in PORTED_GRID
            if s.split(":", 1)[0] in SECOND_WAVE_SCHEMES
        ],
        "gate": SPEEDUP_GATE2,
        "prefix": "second-wave grid",
        "json": "BENCH_kernel_registry2.json",
        "what": "second-wave grid (perceptron/biasfilter/statics — the "
                "retired SCALAR_ONLY tier) x CINT95 suite, cold cache: "
                "scalar engine vs kernel registry",
    },
}


@contextmanager
def _env(**overrides):
    """Temporarily set (or unset, via ``None``) environment variables."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def measure_registry_sweep(wave: str = "1"):
    """Scalar-pin vs registry dispatch over one wave's grid.

    Returns ``(rows, summary, mismatches)`` in the shape of the other
    measurement scripts: CSV rows for ``sweep_speedup.csv``, the
    ``BENCH_kernel_registry*.json`` payload, and the total count of
    diverging cells (0 required).
    """
    config = WAVES[wave]
    specs = list(config["specs"])
    gate = config["gate"]
    traces = load_bench_suite("cint95")
    families = plan_families(specs)

    # Warm pass: one tiny registry evaluation pays the one-time C
    # driver build and imports outside the timed sweeps.
    warm = next(iter(traces.values()))[:2_000]
    with _env(REPRO_KERNEL=None):
        evaluate_specs([specs[0], specs[-1]], warm)

    with tempfile.TemporaryDirectory() as tmp, _env(REPRO_KERNEL="scalar"):
        t0 = time.perf_counter()
        scalar = evaluate_matrix(specs, traces, cache=ResultCache(Path(tmp)))
        scalar_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp, _env(REPRO_KERNEL=None):
        t0 = time.perf_counter()
        registry = evaluate_matrix(specs, traces, cache=ResultCache(Path(tmp)))
        registry_s = time.perf_counter() - t0

    mismatches = 0
    for spec in specs:
        for bench in traces:
            if registry[spec][bench] != scalar[spec][bench]:
                mismatches += 1
                print(f"MISMATCH {spec} on {bench}: "
                      f"registry={registry[spec][bench]} "
                      f"scalar={scalar[spec][bench]}")

    # Differential oracle + scalar engine, every cell, power-on prefix.
    oracle_n = int(os.environ.get("REPRO_KERNEL_ORACLE_N", "20000"))
    oracle_cells = oracle_mismatches = 0
    for bench, trace in traces.items():
        prefix = trace[:oracle_n]
        with _env(REPRO_KERNEL=None):
            registry_prefix = evaluate_specs(specs, prefix)
        for spec in specs:
            scalar_rate = run(make_predictor(spec), prefix).misprediction_rate
            oracle = oracle_rate(spec, prefix)
            oracle_cells += 1
            if not (registry_prefix[spec] == scalar_rate == oracle):
                oracle_mismatches += 1
                print(f"MISMATCH oracle {spec} on {bench} (n={len(prefix)}): "
                      f"registry={registry_prefix[spec]} scalar={scalar_rate} "
                      f"oracle={oracle}")

    speedup = scalar_s / registry_s if registry_s else float("inf")
    verdict = "identical" if mismatches + oracle_mismatches == 0 else "DIVERGED"
    summary = {
        "what": config["what"],
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
        "gate": f">= {gate}x, rates bit-identical per cell",
        "rates_identical": mismatches == 0,
        "oracle": {
            "prefix_branches": oracle_n,
            "cells_checked": oracle_cells,
            "registry_scalar_oracle_identical": oracle_mismatches == 0,
        },
    }
    rows = [
        [f"{config['prefix']} scalar engine (REPRO_KERNEL=scalar)",
         f"{scalar_s:.2f}", "1.00x", verdict],
        [f"{config['prefix']} kernel registry (REPRO_KERNEL=auto)",
         f"{registry_s:.2f}", f"{speedup:.2f}x", verdict],
    ]
    return rows, summary, mismatches + oracle_mismatches


def _append_speedup_rows(rows, prefix: str) -> Path:
    """Append rows to the shared ``sweep_speedup.csv`` artifact,
    replacing any previous rows carrying this wave's ``prefix``."""
    path = results_dir() / "sweep_speedup.csv"
    headers = ["path", "seconds", "speedup", "rates"]
    existing = []
    if path.exists():
        with path.open() as fh:
            reader = csv.reader(fh)
            next(reader, None)
            existing = [
                row for row in reader
                if row and not row[0].startswith(prefix)
            ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(existing)
        writer.writerows(rows)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--wave", choices=sorted(WAVES), default="1",
        help="which grid slice to measure (default: 1, the PR-7 grid)",
    )
    args = parser.parse_args(argv)
    config = WAVES[args.wave]
    rows, summary, mismatches = measure_registry_sweep(args.wave)
    print()
    print(ascii_table(
        ["path", "seconds", "speedup", "rates"],
        rows,
        title=f"kernel registry: {config['prefix']} sweep",
    ))
    path = _append_speedup_rows(rows, config["prefix"])
    print(f"[appended to {path}]")
    bench_path = results_dir() / config["json"]
    bench_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"[written {bench_path}]")
    if mismatches:
        print(f"FAILED: {mismatches} diverging cell(s)")
        return 1
    if summary["speedup"] < config["gate"]:
        print(f"BELOW TARGET: {summary['speedup']}x < {config['gate']}x")
        return 2
    print(f"OK: {summary['speedup']}x >= {config['gate']}x, all cells identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
