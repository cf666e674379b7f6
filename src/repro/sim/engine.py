"""Trace-driven simulation engine.

Thin orchestration over the predictor batch interface: reset, run,
(optionally) warm-up split.  :func:`run` is the *stateful* API — it
steps the live predictor, so ``run(p, a)`` followed by
``run(p, b, reset=False)`` equals one run over both chunks — and so it
runs each predictor's scalar reference, not the kernel registry.  A
caller that only wants the rate of a fresh predictor should use
:func:`repro.sim.runner.evaluate`, which shares the sweeps' dispatch.

Detailed (Section-4) simulation from power-on state shares the sweeps'
dispatch: the predictor's canonical spec
(:func:`repro.sim.kernels.spec_for_predictor`) goes through
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
    predictor: BranchPredictor,
    trace: BranchTrace,
    reset: bool = True,
    warmup: int = 0,
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace``.

    Parameters
    ----------
    reset:
        Restore power-on state first (default).  Pass ``False`` to
        continue from existing state (e.g. across trace chunks).
    warmup:
        If non-zero, the first ``warmup`` branches still train the
        predictor but are excluded from the returned result (the paper
        reports whole-trace rates, so the default is 0).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup > len(trace):
        raise ValueError(f"warmup ({warmup}) exceeds trace length ({len(trace)})")
    if reset:
        predictor.reset()
    result = predictor.simulate(trace)
    if warmup:
        result = SimulationResult(
            predictor_name=result.predictor_name,
            trace_name=result.trace_name,
            predictions=result.predictions[warmup:],
            outcomes=result.outcomes[warmup:],
        )
    return result


def run_detailed(
    predictor: BranchPredictor,
    trace: BranchTrace,
    reset: bool = True,
    warmup: int = 0,
) -> DetailedSimulation:
    """Simulate with per-access counter attribution (Section-4 analysis).

    Parameters mirror :func:`run`: ``warmup`` branches still train the
    predictor but are excluded from the returned result (and from the
    attribution arrays).  With ``reset=True`` (the default) a predictor
    with a spec form runs through the kernel registry, on fresh tables:
    its own state is left as it was.  ``reset=False`` continues live
    predictor state, which only the per-branch loop can.  Results are
    bit-identical either way.
    """
    from repro import health
    from repro.sim import kernels

    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup > len(trace):
        raise ValueError(f"warmup ({warmup}) exceeds trace length ({len(trace)})")
    spec = kernels.spec_for_predictor(predictor) if reset else None
    kind, lane = ("scalar", None) if spec is None else kernels.kernel_for_spec(spec)
    if kind != "scalar":
        (detailed,) = kernels.family_detailed(kind, [spec], [lane], trace)
        detailed.result.predictor_name = predictor.name
    else:
        if reset:
            health.engine_used(
                "detailed-kernel",
                "scalar",
                expected="batch",
                reason=f"no batch attribution kernel for {predictor.name}",
            )
            predictor.reset()
        detailed = predictor.simulate_detailed(trace)
    if warmup:
        result = detailed.result
        sliced = SimulationResult(
            predictor_name=result.predictor_name,
            trace_name=result.trace_name,
            predictions=result.predictions[warmup:],
            outcomes=result.outcomes[warmup:],
        )
        detailed = DetailedSimulation(
            result=sliced,
            counter_ids=detailed.counter_ids[warmup:],
            num_counters=detailed.num_counters,
            pcs=None if detailed.pcs is None else detailed.pcs[warmup:],
        )
    return detailed


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
