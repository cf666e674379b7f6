"""Core predictor framework and the bi-mode predictor itself."""

from repro.core.bimode import BiModePredictor
from repro.core.counters import (
    STRONGLY_NOT_TAKEN,
    STRONGLY_TAKEN,
    WEAKLY_NOT_TAKEN,
    WEAKLY_TAKEN,
    CounterTable,
)
from repro.core.hardware import PAPER_SIZE_POINTS_KB, HardwareBudget
from repro.core.history import (
    GlobalHistoryRegister,
    PerAddressHistoryTable,
    global_history_stream,
)
from repro.core.interfaces import (
    BranchPredictor,
    DetailedSimulation,
    SimulationResult,
)
from repro.core.registry import (
    available_schemes,
    bimode_at_kb,
    gshare_at_kb,
    make_predictor,
    parse_spec,
)

__all__ = [
    "BiModePredictor",
    "BranchPredictor",
    "CounterTable",
    "DetailedSimulation",
    "GlobalHistoryRegister",
    "HardwareBudget",
    "PAPER_SIZE_POINTS_KB",
    "PerAddressHistoryTable",
    "SimulationResult",
    "STRONGLY_NOT_TAKEN",
    "STRONGLY_TAKEN",
    "WEAKLY_NOT_TAKEN",
    "WEAKLY_TAKEN",
    "available_schemes",
    "bimode_at_kb",
    "global_history_stream",
    "gshare_at_kb",
    "make_predictor",
    "parse_spec",
]
