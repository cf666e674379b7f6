"""Trace-driven simulation engine.

Thin orchestration over the predictor batch interface: reset, run,
(optionally) warm-up split.  :func:`run` is the *stateful* API — it
steps the live predictor, so ``run(p, a)`` followed by
``run(p, b, reset=False)`` equals one run over both chunks — and so it
runs each predictor's scalar reference, not the kernel registry.  A
caller that only wants the rate of a fresh predictor should use
:func:`repro.sim.runner.evaluate`, which shares the sweeps' dispatch.

Detailed (Section-4) simulation additionally dispatches through the
kernel registry (:mod:`repro.sim.kernels`): the predictor's canonical
spec resolves to its entry's ``detailed`` attribution kernel, with the
engine chosen by ``REPRO_KERNEL`` exactly as for sweeps.  Every
fallback to the scalar loop is reported through :mod:`repro.health`;
``REPRO_KERNEL=c`` without a compiler raises ``RuntimeError`` instead.
"""

from __future__ import annotations

from typing import Optional

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


def _run_detailed_batch(
    predictor: BranchPredictor, trace: BranchTrace
) -> Optional[DetailedSimulation]:
    """The batch attribution kernel's detailed simulation, or ``None``.

    ``None`` means the caller should run the predictor's generic
    ``simulate_detailed`` loop; the fallback is recorded as a health
    event.  Dispatch resolves the predictor through the kernel registry
    (:func:`repro.sim.kernels.spec_for_predictor` -> lane -> the
    scheme's ``detailed`` kernel), with the engine following
    ``REPRO_KERNEL``.  The batch path never touches the predictor's own
    tables — callers under ``reset=True`` semantics observe power-on
    state either way.
    """
    from repro import health
    from repro.sim import kernels, lanes

    spec = kernels.spec_for_predictor(predictor)
    kind, lane = ("scalar", None) if spec is None else kernels.kernel_for_spec(spec)
    entry = kernels.PORTED.get(kind)
    reason = f"no batch attribution kernel for {predictor.name}"
    if entry is not None and entry.detailed is not None:
        # raises under REPRO_KERNEL=c without a compiler
        (engine,), _, why = kernels._resolve_engines(
            entry, [lane], kernels.kernel_mode()
        )
        if engine != "scalar":
            predictions, counter_ids = entry.detailed(lane, trace, engine, None)
            health.engine_used("detailed-kernel", "batch", expected="batch")
            return DetailedSimulation(
                result=SimulationResult(
                    predictor_name=predictor.name,
                    trace_name=trace.name,
                    predictions=predictions,
                    outcomes=trace.outcomes,
                ),
                counter_ids=counter_ids,
                num_counters=lanes.detailed_num_counters(lane),
                pcs=trace.pcs,
            )
        # REPRO_KERNEL=scalar, or a sequential-only scheme with no
        # compiler: the batch tier has nothing to run with
        reason = why or "REPRO_KERNEL=scalar pins the scalar engine"
    health.engine_used("detailed-kernel", "scalar", expected="batch", reason=reason)
    return None


def run_detailed(
    predictor: BranchPredictor,
    trace: BranchTrace,
    reset: bool = True,
    warmup: int = 0,
) -> DetailedSimulation:
    """Simulate with per-access counter attribution (Section-4 analysis).

    Parameters mirror :func:`run`: ``warmup`` branches still train the
    predictor but are excluded from the returned result (and from the
    attribution arrays).  With ``reset=True`` (the default) the
    simulation dispatches through the batch attribution kernels per
    ``$REPRO_KERNEL``; ``reset=False`` continues live predictor state,
    which only the per-branch loop can.  Results are bit-identical
    either way.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup > len(trace):
        raise ValueError(f"warmup ({warmup}) exceeds trace length ({len(trace)})")
    detailed = _run_detailed_batch(predictor, trace) if reset else None
    if detailed is None:
        if reset:
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
