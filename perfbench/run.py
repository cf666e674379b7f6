"""Paper-suite benchmark: host speed of the bi-mode reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rates --seed 0 --seconds 10 --trace 0

Workloads (``perfbench/workloads.py``): ``rates`` (Figs 2–4 through
``paper_sweep``), ``dealiasing`` (the Section-5 comparison grid through
``evaluate_matrix``), ``section4`` (the Fig 5–8 / Table-4 attribution
grid through ``detailed_matrix``) and ``no-cc`` (the ``rates`` grid at
scale 0.1 with no C compiler).

Every run works in a fresh cache root under ``.perfbench_work/`` in
the checkout, removed on exit, so no run reads the shared
``~/.cache/repro-bimode`` and nothing under ``results/`` is written.
The measuring process (``worker.py``) runs serially (``REPRO_JOBS=1``)
with every inherited ``REPRO_*`` pin removed; the ``sim.parallel``
process pool is deliberately not measured.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's samples with its unit, sample count and range:

* ``branches_per_s`` — simulated predictor-branch updates (every cell's
  trace branches) per wall second of one sweep call;
* ``wall_s`` — wall time of one sweep call, trace store warm, result
  cache and journal empty;
* ``setup_s`` — process start to the first sweep call: import, cold
  trace materialization into an empty store, kernel build into an
  empty cache root; measured in the run's own worker and in
  ``SETUP_PROBES`` set-up-only workers;
* ``peak_rss_mb`` — the measuring worker's peak resident memory.

The times are seconds at the reference host speed: each is divided by
the host's slowdown, measured with the fixed, ``repro``-free mix of
``calibrate.py`` right after set-up and after every sweep, because the
shared host's own speed drifts more than the bounds allow.  The host
times themselves are printed too, on the ``host time`` line.

It also prints ``failed_share`` (failed / attempted cells, also the
JSON's ``failed`` and ``attempted``) and, on ``rates``,
``paper_gap_pp``; neither is a bounded metric in ``BENCHMARK.json``,
because the first is 0 when the run is correct and the second exists
on one workload only.  ``--trace 1`` prints the per-layer metrics of
traced sweeps (``tracing.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Output gate: every cell of every sweep is hashed (rates as exact
floats, Section-4 summaries as exact JSON; on ``rates`` and ``no-cc``
all 124 specs' rates, read back from the sweep's result cache, plus the
assembled curves).  All sweeps of a run, traced or not, must hash
alike, and the hash must equal the digest recorded in
``perfbench/reference.json`` for the workload and seed when one is
recorded (``record.py`` writes them).  Sampled cells are also replayed
on trace prefixes through the workload's whole grid and compared with
``repro.verify.oracle``.  Cells of a sweep whose hash is wrong, cells
missing from a sweep's outputs (quarantined) and oracle mismatches
count as failed; any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

#: (name, unit) of the end-to-end metrics printed with ``--trace 0``.
END_TO_END = (
    ("branches_per_s", "updates/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Set-up-only processes per run, besides the measuring one; setup_s is
#: the median over all of them.
SETUP_PROBES = 2

#: A run must end within 180 s; the workers share this budget.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env(workload: str, cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = cache_dir / "tmp"  # the compiler's temporary files stay in the checkout too
    tmp.mkdir(parents=True)
    env.update(
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_JOBS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        # numpy asks for transparent huge pages for large arrays; whether the
        # kernel has them free, or stalls compacting memory, depends on the
        # rest of the host and made one process up to 15% slower than the next
        NUMPY_MADVISE_HUGEPAGE="0",
    )
    if workload == "no-cc":
        env["REPRO_NO_CC"] = "1"
    return env


def run_worker(args, work: Path, tag: str, deadline: float, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh cache root and return its result."""
    cache_dir = work / tag
    out = work / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", repr(args.scale),
        "--out", str(out),
        *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)],
        env=worker_env(args.workload, cache_dir),
        cwd=ROOT,
        stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{tag} worker overran the {DEADLINE_S:g} s budget")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if code != 0:
        raise WorkerError(f"{tag} worker exited with code {code}")
    return json.loads(out.read_text())


def reference_digest(workload: str, seed: int):
    """The recorded output digest of ``workload`` at ``seed``, if any."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def gate(result: dict, expected) -> dict:
    """Failed cells of one run, and what failed."""
    digests = result["digests"] + result["traced_digests"]
    want = expected or digests[0]
    bad_sweeps = sum(d != want for d in digests)
    oracle = result["oracle"]
    problems = []
    if expected and bad_sweeps:
        problems.append(f"{bad_sweeps} sweep(s) differ from the recorded digest {expected}")
    elif bad_sweeps:
        problems.append(f"{bad_sweeps} sweep(s) differ from the first sweep's outputs")
    if result["traced_digests"] and set(result["traced_digests"]) != set(result["digests"]):
        problems.append("traced outputs differ from untraced outputs")
    if result["missing"]:
        problems.append(f"{result['missing']} cell(s) missing from the outputs (quarantined)")
    problems += [f"oracle mismatch: {cell}" for cell in oracle["mismatches"]]
    attempted = result["cells"] * len(digests) + oracle["cells"]
    failed = result["cells"] * bad_sweeps + result["missing"] + len(oracle["mismatches"])
    return {"attempted": attempted, "failed": min(failed, attempted), "problems": problems}


def slowdowns(calibrations) -> list:
    """Host slowdown of each calibration against the reference speed."""
    return [c / REFERENCE_S for c in calibrations]


def end_to_end(result: dict, setups) -> dict:
    """``name -> (median, unit, samples)`` of every end-to-end metric.

    Times are in seconds at the reference host speed: each sweep's wall
    time is divided by the mean slowdown of the calibrations before and
    after it, each set-up time by the slowdown of the calibration that
    follows it.  ``setups`` are the results of the run's worker and of
    the set-up-only workers.
    """
    slow = slowdowns(result["calibrations"])
    walls = [w / ((a + b) / 2) for w, a, b in zip(result["walls"], slow, slow[1:])]
    rates = [result["branches"] / wall for wall in walls]
    setup = [r["setup_s"] / slowdowns(r["calibrations"])[0] for r in setups]
    return {
        "branches_per_s": (statistics.median(rates), "updates/s", rates),
        "wall_s": (statistics.median(walls), "s", walls),
        "setup_s": (statistics.median(setup), "s", setup),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", [result["peak_rss_mb"]]),
    }


def per_layer(result: dict) -> dict:
    """``name -> (median, unit, samples)`` over the traced sweeps."""
    overhead = statistics.median(result["traced_walls"]) - statistics.median(result["walls"])
    metrics = {}
    for name, unit in PER_LAYER:
        samples = [layer[name] for layer in result["layers"]]
        if name == "tracing.overhead_s":
            samples = [overhead]
        metrics[name] = (statistics.median(samples), unit, samples)
    return metrics


def report(args, result: dict, verdict: dict, expected, metrics: dict) -> None:
    digest = result["digests"][0]
    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print(f"  cells per sweep: {result['cells']}  branches per sweep: {result['branches']}")
    for component, engines in sorted(result["engines"].items()):
        cells = ", ".join(f"{engine} ({n} cells)" for engine, n in sorted(engines.items()))
        print(f"  engine  {component}: {cells}")
    if expected is None:
        status = f"no digest recorded for seed {args.seed}"
    else:
        status = "matches the recorded digest" if digest == expected else f"recorded {expected}"
    print(f"  output digest {digest} ({status})")
    oracle = result["oracle"]
    print(
        f"  oracle replay: {oracle['cells']} cells x {oracle['branches']}-branch prefixes, "
        f"{len(oracle['mismatches'])} mismatches"
    )
    for problem in verdict["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  {'metric':<44} {'median':>12}  {'unit':<10} {'n':>3} {'min':>12} {'max':>12}")
    for name, (value, unit, samples) in metrics.items():
        print(
            f"  {name:<44} {value:>12.6g}  {unit:<10} {len(samples):>3}"
            f" {min(samples):>12.6g} {max(samples):>12.6g}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every trace length (self-test; the "
                        "recorded digests are those of scale 1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_worker(args, work, "run", deadline)
        setups = [result]
        if not args.trace:
            for probe in range(SETUP_PROBES):
                setups.append(run_worker(args, work, f"setup{probe}", deadline, "--setup-only"))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    expected = reference_digest(args.workload, args.seed)
    verdict = gate(result, expected)
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, setups)
    report(args, result, verdict, expected, metrics)
    share = verdict["failed"] / verdict["attempted"]
    print(f"  {'failed_share':<44} {share:>12.6g}  {'fraction':<10} {1:>3}")
    if result["paper_gap_pp"] is not None:
        print(f"  {'paper_gap_pp':<44} {result['paper_gap_pp']:>12.6g}  {'pp':<10} {1:>3}")
    if not args.trace:
        calibrations = [c for r in setups for c in r["calibrations"]]
        print(
            f"  host time, not normalized: wall_s {statistics.median(result['walls']):.6g} s, "
            f"setup_s {statistics.median(r['setup_s'] for r in setups):.6g} s; "
            f"calibration {statistics.median(calibrations):.4g} s (reference {REFERENCE_S:g} s)"
        )
    print(
        json.dumps(
            {
                "correct": verdict["failed"] == 0,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if verdict["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
