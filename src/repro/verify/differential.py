"""Differential replay: oracle vs scalar reference vs batched kernels.

:func:`diff_spec` runs one spec over one trace through every available
implementation —

* the dict-based oracle (:mod:`repro.verify.oracle`),
* the predictor's step interface (``predict``/``update`` per branch,
  through the generic ``simulate_detailed`` loop where the scheme
  attributes accesses, so the run carries its counter ids),
* :func:`repro.sim.engine.run`, which differs from the step loop only
  for bi-mode, the one scheme that keeps a hand-tuned ``simulate``,
* the spec's registry kernel (:mod:`repro.sim.kernels`) through the
  default dispatch — the compiled loop when a compiler is available —
  and, when one is, again under :func:`repro.faults.deny_compiler`
  (the scalar reference, for every scheme but the vectorized statics:
  gshare's numpy form rates only);
  the scalar reference itself is the step run and :func:`run` —

and reports whether all predictions agree, and if not, the index of
the first diverging branch together with each engine's prediction
there.  For schemes with detailed (Section-4) support, every engine
that can attribute accesses also carries its per-branch counter ids,
and the report checks those for divergence too — a kernel that
predicts correctly but attributes an access to the wrong counter is
still a divergence.  This is the debugging entry point when a kernel
regresses: the report names the branch to single-step, and the
test-suite fuzzers shrink their failing traces before producing it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import faults
from repro.core.registry import make_predictor
from repro.sim import kernels
from repro.sim.engine import run, run_steps
from repro.traces.record import BranchTrace
from repro.verify.oracle import (
    oracle_detailed,
    oracle_predictions,
    oracle_supports_detailed,
)

__all__ = ["EngineRun", "DifferentialReport", "diff_spec"]


@dataclass
class EngineRun:
    """One implementation's replay of the trace.

    ``counter_ids`` is present for engines that also attribute each
    access to a counter (the detailed/Section-4 contract).
    """

    engine: str
    predictions: np.ndarray
    counter_ids: Optional[np.ndarray] = None

    def rate(self, outcomes: np.ndarray) -> float:
        if len(outcomes) == 0:
            return 0.0
        return int(np.count_nonzero(self.predictions != outcomes)) / len(outcomes)


@dataclass
class DifferentialReport:
    """Outcome of replaying one (spec, trace) cell through every engine."""

    spec: str
    trace_name: str
    num_branches: int
    runs: List[EngineRun] = field(default_factory=list)
    first_divergence: Optional[int] = None
    divergence_detail: str = ""

    @property
    def agree(self) -> bool:
        return self.first_divergence is None

    def summary(self) -> str:
        engines = ", ".join(r.engine for r in self.runs)
        head = (
            f"spec {self.spec!r} on trace {self.trace_name!r} "
            f"({self.num_branches} branches; engines: {engines})"
        )
        if self.agree:
            return f"{head}: all engines agree"
        return f"{head}: {self.divergence_detail}"


def diff_spec(
    spec: str, trace: BranchTrace, include_kernels: bool = True
) -> DifferentialReport:
    """Replay ``spec`` over ``trace`` through every implementation.

    The oracle is always run and is the reference ordering: the report's
    ``first_divergence`` is the smallest branch index where *any* engine
    disagrees with any other (they either all match or the earliest
    mismatch is against the oracle, since agreement is transitive).
    """
    report = DifferentialReport(
        spec=spec, trace_name=trace.name or "anon", num_branches=len(trace)
    )
    detailed = oracle_supports_detailed(spec)
    if detailed:
        o_preds, o_ids = oracle_detailed(spec, trace)
        report.runs.append(EngineRun("oracle", o_preds, o_ids))
    else:
        report.runs.append(EngineRun("oracle", oracle_predictions(spec, trace)))
    if detailed:
        step = make_predictor(spec).simulate_detailed(trace)
        report.runs.append(
            EngineRun("step", step.result.predictions, step.counter_ids)
        )
    else:
        report.runs.append(
            EngineRun("step", run_steps(make_predictor(spec), trace).predictions)
        )
    report.runs.append(EngineRun("run", run(make_predictor(spec), trace).predictions))
    if include_kernels:
        kind, lane = kernels.kernel_for_spec(spec)
        if kind in kernels.PORTED:
            # the registry dispatch as this process runs it, then with
            # the compiler vetoed (the scalar reference attributes);
            # runs carry counter ids too, so an attribution regression
            # diverges here even when predictions agree
            tier = kernels.PORTED[kind].tier
            engines = {kernels.default_engine(tier): nullcontext}
            with faults.deny_compiler():
                engines.setdefault(kernels.default_engine(tier), faults.deny_compiler)
            for engine, context in engines.items():
                with context():
                    (detailed,) = kernels.family_detailed(kind, [spec], [lane], trace)
                report.runs.append(
                    EngineRun(
                        f"lane:{kind}[{engine}]",
                        detailed.result.predictions,
                        detailed.counter_ids,
                    )
                )

    reference = report.runs[0]
    first: Optional[int] = None
    first_kind = "prediction"
    id_reference = next((r for r in report.runs if r.counter_ids is not None), None)
    for other in report.runs[1:]:
        diverging = np.flatnonzero(reference.predictions != other.predictions)
        if diverging.size and (first is None or diverging[0] < first):
            first = int(diverging[0])
            first_kind = "prediction"
        if id_reference is not None and other.counter_ids is not None:
            id_diverging = np.flatnonzero(
                id_reference.counter_ids != other.counter_ids
            )
            if id_diverging.size and (first is None or id_diverging[0] < first):
                first = int(id_diverging[0])
                first_kind = "counter-id"
    if first is not None:
        report.first_divergence = first
        pc = int(trace.pcs[first])
        outcome = bool(trace.outcomes[first])
        if first_kind == "counter-id":
            votes = ", ".join(
                f"{r.engine}=c{int(r.counter_ids[first])}"
                for r in report.runs
                if r.counter_ids is not None
            )
        else:
            votes = ", ".join(
                f"{r.engine}={'T' if r.predictions[first] else 'NT'}"
                for r in report.runs
            )
        report.divergence_detail = (
            f"first {first_kind} divergence at branch {first} "
            f"(pc={pc:#x}, outcome={'taken' if outcome else 'not-taken'}): {votes}"
        )
    return report
