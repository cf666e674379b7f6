"""Record the reference output digests the benchmark's gate compares with.

For every workload and seed, one worker process runs the sweeps once in
a fresh cache root (no timing loop) and its output digest is stored in
``perfbench/reference.json`` under ``{workload: {seed: digest}}``.
Re-record only when a change is meant to alter simulated outputs::

    python3 perfbench/record.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import time
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-15 or 1,4,7")
    parser.add_argument("--workloads", nargs="+", default=list(run.NAMES), choices=run.NAMES)
    args = parser.parse_args(argv)

    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in args.workloads:
            for seed in args.seeds:
                opts = argparse.Namespace(
                    workload=workload, seed=seed, seconds=0.0, trace=0, scale=1.0
                )
                deadline = time.monotonic() + run.DEADLINE_S
                result = run.run_worker(opts, work, f"{workload}-{seed}", deadline)
                digests = set(result["digests"])
                if len(digests) != 1 or result["oracle"]["mismatches"]:
                    print(f"{workload} seed {seed}: outputs not reproducible", file=sys.stderr)
                    return 1
                reference.setdefault(workload, {})[str(seed)] = digests.pop()
                print(f"{workload} seed {seed}: {reference[workload][str(seed)]}", flush=True)
                run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
