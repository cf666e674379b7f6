"""repro — a reproduction of "The Bi-Mode Branch Predictor"
(Lee, Chen & Mudge, MICRO-30, 1997).

The package provides:

* :mod:`repro.core` — the bi-mode predictor and the predictor framework
  (counters, history registers, index functions, cost accounting,
  registry);
* :mod:`repro.predictors` — gshare (single- and multi-PHT), the
  two-level GAx/PAx family, static/bimodal floors, and the agree /
  gskew / YAGS / tournament comparators;
* :mod:`repro.traces` — branch-trace containers, persistence and
  statistics;
* :mod:`repro.workloads` — synthetic SPEC CINT95 and IBS-Ultrix
  workload profiles standing in for the paper's traces;
* :mod:`repro.sim` — the trace-driven simulation engine with cached
  multi-run orchestration;
* :mod:`repro.analysis` — the paper's Section-4 bias-class framework
  (substream classification, misprediction breakdowns, interference
  counts) and the size-sweep / gshare.best machinery behind Figures 2–4.

Quickstart::

    from repro import BiModePredictor, GSharePredictor, load_benchmark, run

    trace = load_benchmark("gcc")
    bimode = BiModePredictor(direction_index_bits=11)
    gshare = GSharePredictor(index_bits=12)
    print(run(bimode, trace).misprediction_rate)
    print(run(gshare, trace).misprediction_rate)
"""

from repro._version import __version__
from repro.core import (
    BiModePredictor,
    BranchPredictor,
    CounterTable,
    GlobalHistoryRegister,
    HardwareBudget,
    PAPER_SIZE_POINTS_KB,
    SimulationResult,
    available_schemes,
    bimode_at_kb,
    gshare_at_kb,
    make_predictor,
)
from repro.predictors import (
    AgreePredictor,
    BimodalPredictor,
    GSharePredictor,
    GSkewPredictor,
    TournamentPredictor,
    YagsPredictor,
)
from repro.sim import evaluate, evaluate_matrix, run, run_detailed
from repro.traces import BranchTrace, compute_stats
from repro.workloads import (
    cint95_suite,
    generate_trace,
    get_profile,
    ibs_suite,
    load_benchmark,
)

__all__ = [
    "AgreePredictor",
    "BiModePredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "BranchTrace",
    "CounterTable",
    "GSharePredictor",
    "GSkewPredictor",
    "GlobalHistoryRegister",
    "HardwareBudget",
    "PAPER_SIZE_POINTS_KB",
    "SimulationResult",
    "TournamentPredictor",
    "YagsPredictor",
    "__version__",
    "available_schemes",
    "bimode_at_kb",
    "cint95_suite",
    "compute_stats",
    "evaluate",
    "evaluate_matrix",
    "generate_trace",
    "get_profile",
    "gshare_at_kb",
    "ibs_suite",
    "load_benchmark",
    "make_predictor",
    "run",
    "run_detailed",
]
