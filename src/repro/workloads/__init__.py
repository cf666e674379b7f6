"""Synthetic workload substrate standing in for the paper's IBS/SPEC traces."""

from repro.workloads.cfg import BranchSite, Program, Region, zipf_weights
from repro.workloads.components import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.workloads.generator import KERNEL_BASE, build_program, generate_trace
from repro.workloads.profiles import (
    ALL_PROFILES,
    CINT95_PROFILES,
    IBS_PROFILES,
    BehaviorMix,
    BenchmarkProfile,
    get_profile,
)
from repro.workloads.suite import (
    cint95_suite,
    default_cache_dir,
    ibs_suite,
    load_benchmark,
    load_suite,
    suite_names,
)

__all__ = [
    "ALL_PROFILES",
    "BehaviorMix",
    "BenchmarkProfile",
    "BiasedBehavior",
    "BranchBehavior",
    "BranchSite",
    "CINT95_PROFILES",
    "CorrelatedBehavior",
    "IBS_PROFILES",
    "KERNEL_BASE",
    "LoopBehavior",
    "PatternBehavior",
    "Program",
    "Region",
    "build_program",
    "cint95_suite",
    "default_cache_dir",
    "generate_trace",
    "get_profile",
    "ibs_suite",
    "load_benchmark",
    "load_suite",
    "suite_names",
    "zipf_weights",
]
