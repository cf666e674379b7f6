"""Benchmark-suite builders backed by the memory-mapped trace store.

Generated traces are materialized once into the
:class:`repro.traces.store.TraceStore` under a cache directory (default
``~/.cache/repro-bimode`` or ``$REPRO_CACHE_DIR``), keyed by
``(benchmark, length, seed)`` plus the generator version, and every
subsequent load is an ``np.load(mmap_mode="r")`` — two file opens, no
decompression, no copy, shared page cache across worker processes.

The store's atomic publish and single-flight lock make concurrent
``load_benchmark`` calls safe: exactly one process generates a cold
trace, everyone else maps the published bytes.

``load_suite(jobs=...)`` fans cold materialization out over the
supervised worker pool of :mod:`repro.sim.parallel`, so generating a
whole suite scales with ``$REPRO_JOBS`` and inherits the pool's
retry/quarantine machinery.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.traces.record import BranchTrace
from repro.traces.store import TraceStore
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import (
    ALL_PROFILES,
    CINT95_PROFILES,
    IBS_PROFILES,
    get_profile,
)

__all__ = [
    "default_cache_dir",
    "trace_store",
    "load_benchmark",
    "load_suite",
    "cint95_suite",
    "ibs_suite",
    "suite_names",
]


def default_cache_dir() -> Path:
    """Trace/result cache root (override with ``$REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-bimode"


def trace_store(cache_dir: Optional[Path] = None) -> TraceStore:
    """The trace store under ``cache_dir`` (default: the shared root)."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return TraceStore(root / "store")


def load_benchmark(
    name: str,
    length: int | None = None,
    seed: int = 0,
    cache_dir: Path | None = None,
    use_cache: bool = True,
    store: Optional[TraceStore] = None,
) -> BranchTrace:
    """Generate (or map the stored) trace for one benchmark.

    With caching enabled the trace comes back memory-mapped read-only
    from the store — materialized on first use, a pair of file opens
    ever after.
    """
    profile = get_profile(name)
    if length is None:
        length = profile.default_length
    if not use_cache:
        return generate_trace(profile, length=length, seed=seed)
    if store is None:
        store = trace_store(cache_dir)
    return store.materialize(name, length, seed)


def load_suite(
    names: Iterable[str],
    length: int | None = None,
    seed: int = 0,
    cache_dir: Path | None = None,
    use_cache: bool = True,
    jobs: int | None = None,
) -> Dict[str, BranchTrace]:
    """Traces for several benchmarks, keyed by name.

    ``jobs`` (default: the ``$REPRO_JOBS`` knob) fans cold-store
    materialization out over the supervised worker pool; traces already
    in the store are simply mapped.  Serial and parallel loads produce
    identical traces.
    """
    names = list(names)
    if use_cache:
        from repro.sim.parallel import effective_jobs, materialize_parallel

        if effective_jobs(jobs) > 1:
            store = trace_store(cache_dir)
            cold = [
                name
                for name in names
                if not store.has(
                    name, length or get_profile(name).default_length, seed
                )
            ]
            if len(cold) > 1:
                materialize_parallel(
                    cold, length=length, seed=seed, cache_dir=cache_dir, jobs=jobs
                )
    return {
        name: load_benchmark(
            name, length=length, seed=seed, cache_dir=cache_dir, use_cache=use_cache
        )
        for name in names
    }


def cint95_suite(**kwargs) -> Dict[str, BranchTrace]:
    """The six SPEC CINT95 benchmark traces (paper Figure 3)."""
    return load_suite(CINT95_PROFILES, **kwargs)


def ibs_suite(**kwargs) -> Dict[str, BranchTrace]:
    """The eight IBS-Ultrix benchmark traces (paper Figure 4)."""
    return load_suite(IBS_PROFILES, **kwargs)


def suite_names(suite: str) -> List[str]:
    """Benchmark names in a suite (``"cint95"``, ``"ibs"`` or ``"all"``)."""
    if suite == "cint95":
        return list(CINT95_PROFILES)
    if suite == "ibs":
        return list(IBS_PROFILES)
    if suite == "all":
        return list(ALL_PROFILES)
    raise ValueError(f"unknown suite {suite!r}")
