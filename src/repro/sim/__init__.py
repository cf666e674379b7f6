"""Trace-driven simulation: engine, batch kernel, and cached matrix
sweeps, in-process or over a supervised worker pool."""

from repro.sim.batch import GShareLane
from repro.sim.engine import run, run_detailed, run_steps
from repro.sim.parallel import TraceRecipe, parallel_jobs, recipe_of
from repro.sim.runner import (
    ResultCache,
    evaluate,
    evaluate_matrix,
    evaluate_specs,
    trace_key,
)

__all__ = [
    "GShareLane",
    "ResultCache",
    "TraceRecipe",
    "evaluate",
    "evaluate_matrix",
    "evaluate_specs",
    "parallel_jobs",
    "recipe_of",
    "run",
    "run_detailed",
    "run_steps",
    "trace_key",
]
