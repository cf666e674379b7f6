"""Branch-trace substrate: containers, persistence, statistics, interleaving."""

from repro.traces.filters import interleave
from repro.traces.io import load_npz, save_npz
from repro.traces.record import BranchRecord, BranchTrace
from repro.traces.stats import TraceStats, compute_stats, per_branch_bias

__all__ = [
    "BranchRecord",
    "BranchTrace",
    "TraceStats",
    "compute_stats",
    "interleave",
    "load_npz",
    "per_branch_bias",
    "save_npz",
]
