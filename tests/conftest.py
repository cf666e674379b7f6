"""Shared fixtures: small deterministic traces and predictor specs.

Also registers hypothesis profiles: ``dev`` (the default, fast) and
``ci`` (derandomized with a fixed seed and a larger example budget, for
the dedicated CI fuzzing job).  Select with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.traces.record import BranchTrace
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

settings.register_profile(
    "ci",
    max_examples=200,
    derandomize=True,  # fixed seed: CI failures reproduce locally
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", settings.default)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def dispatch_as(mode: str):
    """The kernel dispatch a test replays: ``auto`` as this process runs
    it, ``numpy`` with the compiler vetoed (``REPRO_NO_CC=1``: gshare's
    numpy rates, and every other form's scalar reference)."""
    from repro import faults

    return faults.deny_compiler() if mode == "numpy" else nullcontext()


#: Every registered predictor spec exercised by the equivalence and
#: smoke tests.  Kept small so the whole matrix stays fast.
ALL_SPECS = [
    "always-taken",
    "always-not-taken",
    "btfnt",
    "bimodal:index=8",
    "bimodal:index=6,bits=3",
    "gshare:index=8,hist=8",
    "gshare:index=8,hist=3",
    "gshare:index=8,hist=0",
    "gag:hist=8",
    "gas:hist=5,select=3",
    "gselect:hist=4,addr=4",
    "pag:hist=6,bht=6",
    "pas:hist=4,select=3,bht=5",
    "bimode:dir=7,hist=7,choice=7",
    "bimode:dir=7,hist=4,choice=6",
    "bimode:dir=7,hist=7,choice=7,full_update=1",
    "bimode:dir=7,hist=7,choice=7,choice_hist=1",
    "agree:index=8,hist=8",
    "gskew:bank=7,hist=7",
    "gskew:bank=7,hist=7,update=total",
    "yags:choice=8,cache=6,hist=6,tag=6",
    "tournament:index=8,meta=8",
    "trimode:dir=7,hist=7,choice=7",
    "trimode:dir=7,hist=3,choice=5",
    "biasfilter:table=8,run=2,sub_index=8,sub_hist=8",
    "gap:hist=4,addr=4",
    "pap:hist=3,addr=3,bht=4",
    "perceptron:index=6,hist=8",
]


#: Figure-grid-style specs for every kernel-registry scheme, at 2-3
#: sizes each: the verification matrix of the per-scheme equivalence
#: suite, the golden fixtures and the registry benchmark.  The gshare
#: and bi-mode rows reuse specs already frozen in the golden fixtures.
PORTED_GRID = [
    "gshare:index=8,hist=6",
    "gshare:index=6,hist=3",
    "bimode:dir=7,hist=5,choice=6",
    "bimode:dir=6,hist=6,choice=5,full_update=1,choice_hist=1",
    "bimodal:index=6",
    "bimodal:index=9",
    "bimodal:index=6,bits=3",
    "gag:hist=6",
    "gag:hist=10",
    "gas:hist=5,select=3",
    "gas:hist=7,select=2",
    "gap:hist=5",
    "gap:hist=4,addr=6",
    "gselect:hist=4,addr=4",
    "gselect:hist=6,addr=3",
    "pag:hist=6,bht=6",
    "pag:hist=8,bht=4",
    "pas:hist=4,select=3,bht=5",
    "pas:hist=5,select=2,bht=6",
    "pap:hist=3,addr=3,bht=4",
    "pap:hist=4,addr=4,bht=5",
    "agree:index=8,hist=8",
    "agree:index=6,hist=4",
    "agree:index=8,hist=8,bias=6",
    "gskew:bank=7,hist=7",
    "gskew:bank=5,hist=5",
    "gskew:bank=7,hist=7,update=total",
    "gskew:bank=5,hist=3,update=total",
    "tournament:index=8,meta=8",
    "tournament:index=6,meta=5",
    "trimode:dir=7,hist=7,choice=7",
    "trimode:dir=5,hist=3,choice=5",
    "yags:choice=8,cache=6,hist=6,tag=6",
    "yags:choice=6,cache=5,hist=3,tag=4",
    # second wave: the former SCALAR_ONLY tier
    "perceptron:index=6,hist=8",
    "perceptron:index=5,hist=12,w=8",
    "perceptron:index=4,hist=6,w=4",
    "biasfilter:table=8,run=2,sub_index=8,sub_hist=8",
    "biasfilter:table=6,run=3,sub_index=7,sub_hist=4",
    "biasfilter:table=7,run=2,sub=bimodal,sub_index=7",
    "always-taken",
    "always-not-taken",
    "btfnt",
]

#: Per-scheme fuzz budget tiers for the differential suites.
#: ``diff_spec`` replays a spec through every engine it qualifies for,
#: and the kernel registry multiplied that space: each ported scheme
#: adds its lane engines (compiled, and gshare's numpy rates) on top of
#: oracle/step/batch.  Schemes with real automata get a smaller
#: example budget so the CI profile's wall-clock stays level; the
#: stateless static schemes keep the wide budget.  Deadlines stay
#: ``None`` everywhere — the first heavy example may compile the C
#: driver, and per-example deadlines would flake on that — so
#: ``max_examples`` *is* the budget knob.
FUZZ_BUDGET = {
    "light": {"max_examples": 15},  # stateless statics: trivial replay
    "heavy": {"max_examples": 8},  # stateful schemes: up to 6 engines
}

#: Two small paper size points -> the full Figure-2/3/4 grid shape.
KB_POINTS = (1 / 64, 1 / 32)


def figure_grid():
    """The 1PHT points, every gshare.best history candidate, and
    bi-mode, at each :data:`KB_POINTS` size — the production sweep's
    spec-grid shape, shrunk to test scale."""
    from repro.analysis.sweep import _candidate_specs, bimode_spec, gshare_1pht_spec

    specs = []
    for kb in KB_POINTS:
        specs.append(gshare_1pht_spec(kb))
        specs.extend(_candidate_specs(kb, None))
        specs.append(bimode_spec(kb))
    return list(dict.fromkeys(specs))


def make_trace(pcs, outcomes, name: str = "t") -> BranchTrace:
    """A literal trace from parallel pc/outcome lists."""
    return BranchTrace(
        pcs=np.asarray(pcs, dtype=np.int64),
        outcomes=np.asarray(outcomes, dtype=bool),
        name=name,
    )


def scalar_predictions(spec: str, trace: BranchTrace) -> np.ndarray:
    """The per-branch step-interface reference: ``predict``/``update``
    one branch at a time through the scalar predictor."""
    from repro.core.registry import make_predictor

    predictor = make_predictor(spec)
    preds = np.empty(len(trace), dtype=bool)
    for i, (pc, taken) in enumerate(zip(trace.pcs, trace.outcomes)):
        preds[i] = predictor.predict(int(pc))
        predictor.update(int(pc), bool(taken))
    return preds


def make_toy_trace(length: int = 2000, seed: int = 7, num_branches: int = 24) -> BranchTrace:
    """A quick random trace (not workload-realistic; for mechanics tests)."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, num_branches, size=length) * 4 + 64
    # mix of biased and alternating branches so every predictor has work
    outcomes = np.empty(length, dtype=bool)
    for b in range(num_branches):
        mask = pcs == b * 4 + 64
        n = int(mask.sum())
        if b % 3 == 0:
            outcomes[mask] = rng.random(n) < 0.95
        elif b % 3 == 1:
            outcomes[mask] = rng.random(n) < 0.05
        else:
            outcomes[mask] = (np.arange(n) % 2).astype(bool)
    return BranchTrace(pcs=pcs, outcomes=outcomes, name="toy")


@pytest.fixture(scope="session")
def toy_trace() -> BranchTrace:
    return make_toy_trace()


@pytest.fixture(scope="session")
def small_workload() -> BranchTrace:
    """A short real workload trace (xlisp profile, 20 K branches)."""
    return generate_trace(get_profile("xlisp"), length=20_000, seed=3)


@pytest.fixture(scope="session")
def aliasing_workload() -> BranchTrace:
    """A trace with a large static footprint (gcc profile, 30 K branches)."""
    return generate_trace(get_profile("gcc"), length=30_000, seed=3)


@pytest.fixture(scope="session")
def aliasing_toy_trace() -> BranchTrace:
    """A toy trace whose 96 static branches alias small tables."""
    return make_toy_trace(length=1500, seed=13, num_branches=96)


@pytest.fixture(scope="session")
def figure_grid_specs() -> list:
    """The shrunk Figure-2/3/4 spec grid (see :func:`figure_grid`)."""
    return figure_grid()
