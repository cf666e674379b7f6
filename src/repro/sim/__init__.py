"""Trace-driven simulation: engine, batch kernel, metrics, and cached
matrix sweeps, in-process or over a supervised worker pool."""

from repro.sim.batch import GShareLane, lane_for_spec
from repro.sim.engine import run, run_detailed, run_steps
from repro.sim.fetch import FetchEngine, FetchStats
from repro.sim.metrics import (
    branch_penalty_cpi,
    misprediction_rate,
    per_branch_rates,
    steady_state_rate,
    wilson_interval,
)
from repro.sim.parallel import TraceRecipe, parallel_jobs, recipe_of
from repro.sim.runner import (
    ResultCache,
    evaluate,
    evaluate_matrix,
    evaluate_specs,
    trace_key,
)

__all__ = [
    "FetchEngine",
    "FetchStats",
    "GShareLane",
    "ResultCache",
    "TraceRecipe",
    "branch_penalty_cpi",
    "evaluate",
    "evaluate_matrix",
    "evaluate_specs",
    "lane_for_spec",
    "misprediction_rate",
    "parallel_jobs",
    "per_branch_rates",
    "recipe_of",
    "run",
    "run_detailed",
    "run_steps",
    "steady_state_rate",
    "trace_key",
    "wilson_interval",
]
