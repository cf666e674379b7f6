"""One benchmark process: set up, time the sweeps, check the outputs.

``run.py`` starts this script with a sanitized environment (a fresh
``REPRO_CACHE_DIR``, ``REPRO_JOBS=1``, no other ``REPRO_*`` pin except
``REPRO_NO_CC=1`` for ``no-cc``) and reads the JSON it writes to
``--out``.  Set-up is everything from process start to the first timed
sweep call: importing ``repro``, cold-materializing the workload's
traces into the empty store, and one sweep over a short prefix that
builds the compiled kernels into the empty cache root.

Each timed sweep starts with an empty result cache and journal and the
trace store warm.  With ``--trace 1`` untraced and traced sweeps
alternate, so the traced run's per-layer numbers, its output digest and
the tracing overhead all come from the same process.  The span wrappers
are installed only around trace loading and around each traced sweep;
the untraced sweeps and the set-up sweep run the program unwrapped.
Without tracing, the host-speed calibration (``calibrate.py``) runs
right after set-up, outside ``setup_s``, and after every timed sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
import workloads
from calibrate import calibrate

#: Timed sweeps per run, at least, however long ``--seconds`` is.
MIN_SWEEPS = 2

#: Branches of the first trace in the set-up sweep that builds the
#: compiled kernels (and imports every lazily loaded module).
WARMUP_BRANCHES = 4096

#: Branches of each oracle-replayed prefix, and cells replayed per run.
ORACLE_BRANCHES = 30_000
ORACLE_MIN_CELLS = 4


def load_traces(wl: workloads.Workload, seed: int, scale: float):
    from repro.workloads import suite

    return {
        name: {
            bench: suite.load_benchmark(
                bench, length=workloads.trace_length(bench, wl.scale * scale), seed=seed
            )
            for bench in benches
        }
        for name, benches in wl.suites
    }


def warm_up(wl: workloads.Workload, traces_by_suite) -> None:
    """One sweep over a short prefix: builds the compiled kernels."""
    suite, traces = next(iter(traces_by_suite.items()))
    bench, trace = next(iter(traces.items()))
    wl.sweep({suite: {bench: trace[:WARMUP_BRANCHES]}}, None, None)


def sweep_once(wl, traces_by_suite, root: Path, rep: int, tracer=None):
    """One timed sweep call with an empty result cache and journal.

    Returns the output, the wall time, the health events, the output
    digest and the number of cells missing from the output.
    """
    from repro import health
    from repro.sim.runner import ResultCache

    rep_dir = root / f"rep{rep}"
    rep_dir.mkdir(parents=True)
    cache = ResultCache(rep_dir)
    health.clear()
    if tracer is None:
        installed = span = contextlib.nullcontext()
    else:
        tracer.reset()
        installed, span = tracer.installed(), tracer.span("sweep")
    with installed:
        t0 = time.perf_counter()
        with span:
            out = wl.sweep(traces_by_suite, cache, rep_dir)
        wall = time.perf_counter() - t0
    events = health.events()
    digest, missing = workloads.digest(wl, out, cache, traces_by_suite)
    shutil.rmtree(rep_dir)
    return out, wall, events, digest, missing


def engines(events) -> dict:
    """``component -> {engine: cells}`` as the health stream reports it."""
    table: dict = {}
    for event in events:
        row = table.setdefault(event.component, {})
        row[event.actual] = row.get(event.actual, 0) + int(event.ctx.get("cells", 0) or 0)
    return table


def oracle_replay(wl, traces_by_suite, seed: int) -> dict:
    """Replay sampled cells' trace prefixes through ``verify.oracle``.

    One cell per scheme (at least ``ORACLE_MIN_CELLS``), chosen from
    the seed.  The sampled traces' prefixes go through the workload's
    entry point with its whole grid, so each sampled cell is computed in
    the same fused family as in the timed sweep, and the sampled cells
    are compared exactly with the dict-based oracle.
    """
    from repro.analysis.summary import summarize_detailed
    from repro.core.interfaces import DetailedSimulation, SimulationResult
    from repro.sim.parallel import detailed_matrix
    from repro.sim.runner import evaluate_matrix
    from repro.verify.oracle import oracle_detailed, oracle_rate

    traces = {b: t for suite in traces_by_suite.values() for b, t in suite.items()}
    by_scheme: dict = {}
    for spec in wl.specs():
        by_scheme.setdefault(spec.split(":", 1)[0], []).append(spec)
    schemes = sorted(by_scheme)
    rng = random.Random(seed)
    picks = []
    while len(picks) < max(ORACLE_MIN_CELLS, len(schemes)):
        scheme = schemes[len(picks) % len(schemes)]
        picks.append((rng.choice(by_scheme[scheme]), rng.choice(sorted(traces))))
    prefixes = {bench: traces[bench][:ORACLE_BRANCHES] for _, bench in picks}
    matrix = evaluate_matrix if wl.entry == "rates" else detailed_matrix
    grid = matrix(wl.specs(), prefixes, jobs=1)
    mismatches = []
    for spec, bench in picks:
        prefix = prefixes[bench]
        got = grid[spec][bench]
        if wl.entry == "rates":
            want = oracle_rate(spec, prefix)
        else:
            predictions, counter_ids = oracle_detailed(spec, prefix)
            want = summarize_detailed(
                DetailedSimulation(
                    result=SimulationResult(
                        predictor_name=spec,
                        trace_name=prefix.name,
                        predictions=predictions,
                        outcomes=prefix.outcomes,
                    ),
                    counter_ids=counter_ids,
                    # table geometry, not a simulated output
                    num_counters=got["num_counters"],
                    pcs=prefix.pcs,
                )
            )
            got, want = json.dumps(got, sort_keys=True), json.dumps(want, sort_keys=True)
        if got != want:
            mismatches.append(f"{spec} on {bench}[:{len(prefix)}]")
    return {"cells": len(picks), "branches": ORACLE_BRANCHES, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.workload(args.workload)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        traces = load_traces(wl, args.seed, args.scale)
    warm_up(wl, traces)
    setup_s = time.monotonic() - args.spawned
    # host speed right after set-up and after every untraced timed sweep
    calibrations = [] if tracer is not None else [calibrate()]
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s, "calibrations": calibrations}))
        return 0

    root = Path(os.environ["REPRO_CACHE_DIR"]) / "sweeps"
    setup_spans = tracer.spans if tracer is not None else []
    walls, digests, traced_walls, traced_digests, layers = [], [], [], [], []
    missing = 0
    rounds = 1 if tracer is not None else MIN_SWEEPS
    start = time.perf_counter()
    while len(walls) < rounds or time.perf_counter() - start < args.seconds:
        out, wall, events, digest, lost = sweep_once(
            wl, traces, root, len(walls) + len(traced_walls)
        )
        walls.append(wall)
        digests.append(digest)
        missing += lost
        if tracer is None:
            calibrations.append(calibrate())
        if tracer is not None:
            _, t_wall, _, t_digest, lost = sweep_once(
                wl, traces, root, len(walls) + len(traced_walls), tracer
            )
            traced_walls.append(t_wall)
            traced_digests.append(t_digest)
            missing += lost
            layers.append(tracing.layer_metrics(setup_spans, tracer.spans))

    flat = [t for suite in traces.values() for t in suite.values()]
    result = {
        "setup_s": setup_s,
        "calibrations": calibrations,
        "walls": walls,
        "digests": digests,
        "traced_walls": traced_walls,
        "traced_digests": traced_digests,
        "cells": len(wl.specs()) * len(flat),
        "branches": len(wl.specs()) * sum(len(t) for t in flat),
        "missing": missing,
        "engines": engines(events),
        "oracle": oracle_replay(wl, traces, args.seed),
        "paper_gap_pp": workloads.paper_gap_pp(out) if wl.name == "rates" else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
