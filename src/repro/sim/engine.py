"""Trace-driven simulation engine.

Thin orchestration over the predictor batch interface: reset, then
run.  :func:`run` is the *stateful* API — it steps the live predictor,
so ``run(p, a)`` followed by ``run(p, b, reset=False)`` equals one run
over both chunks — and so it runs each predictor's scalar reference,
not the kernel registry.  A caller that only wants the rate of a fresh
predictor should use :func:`repro.sim.runner.evaluate`, which shares
the sweeps' dispatch.

Detailed (Section-4) simulation from power-on state shares the sweeps'
dispatch: the lane read off the predictor
(:func:`repro.sim.kernels.lane_of`) goes through
:func:`repro.sim.kernels.family_detailed`, with the engine chosen
exactly as for sweeps — by the scheme's tier and whether a compiler is
available (``REPRO_NO_CC=1`` vetoes it).  Every fallback to the scalar
loop is reported through :mod:`repro.health`.
"""

from __future__ import annotations

from repro.core.interfaces import BranchPredictor, DetailedSimulation, SimulationResult
from repro.traces.record import BranchTrace

__all__ = ["run", "run_detailed", "run_steps"]


def run(
    predictor: BranchPredictor, trace: BranchTrace, reset: bool = True
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace``.

    Parameters
    ----------
    reset:
        Restore power-on state first (default).  Pass ``False`` to
        continue from existing state (e.g. across trace chunks).
    """
    if reset:
        predictor.reset()
    return predictor.simulate(trace)


def run_detailed(predictor: BranchPredictor, trace: BranchTrace) -> DetailedSimulation:
    """Simulate from power-on state with per-access counter attribution
    (Section-4 analysis).

    A predictor with a kernel lane runs through the kernel registry, on
    fresh tables: its own state is left as it was.  Any other predictor
    is reset and runs its per-branch loop, health-reported (a ported
    scheme's kernel veto by name, under ``<scheme>-kernel``).  Results
    are bit-identical either way.
    """
    from repro import health
    from repro.sim import kernels

    kind, lane = kernels.lane_of(predictor)
    if kind != "scalar":
        (detailed,) = kernels.family_detailed(kind, [predictor], [lane], trace)
        return detailed
    kernels.report_veto(predictor)
    health.engine_used(
        "detailed-kernel",
        "scalar",
        expected="batch",
        reason=f"no batch attribution kernel for {predictor.name}",
    )
    predictor.reset()
    return predictor.simulate_detailed(trace)


def run_steps(
    predictor: BranchPredictor, trace: BranchTrace, reset: bool = True
) -> SimulationResult:
    """Simulate via the scalar step interface (reference semantics).

    Always the generic step loop, even for bi-mode's kept ``simulate``;
    tests use it to pin :func:`run`'s contract.  Production code should
    use :func:`run`.
    """
    if reset:
        predictor.reset()
    return BranchPredictor.simulate(predictor, trace)
