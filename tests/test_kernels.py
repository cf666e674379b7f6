"""Registry-driven verification of every scheme's batch kernel.

This suite is *generated from the registry*: the parametrizations come
from :func:`repro.sim.kernels.registered_schemes` and the shared
``PORTED_GRID`` spec matrix, so a scheme that registers in
``core/registry.py`` without declaring a kernel tier, an oracle
implementation, and a golden fixture row fails here **by name** — no
kernel lands without a bit-exact cross-check, and no scheme lands
without a kernel story.

Layers:

* **completeness** — the registry/oracle/golden coverage meta-tests;
* **resolution** — ``kernel_for_spec`` routing, including rejection of
  malformed knobs back to the scalar family;
* **equivalence** — every ported spec, on two trace shapes, under the
  default dispatch and with the compiler vetoed, against the scalar
  engine, the step interface and the dict-based oracle;
* **boundaries** — empty, one-branch, history-wrapping and wide-pc
  traces and 0-bit tables, under the compiled engine, the vetoed
  compiler and the predictor's own reference, against the oracle;
* **identities** — degenerate configurations of different schemes that
  are the same predictor by definition, equal on every engine;
* **dispatch** — the engine the tier and the compiler pick and the
  no-compiler degradations, all health-reported; no caller pins an
  engine, and a per-lane kernel refuses one it cannot run;
* **fuzz** — hypothesis differential replay of random traces through
  :func:`repro.verify.differential.diff_spec`, which runs every
  engine the spec qualifies for;
* **kill drill** — a mid-sweep hard worker kill on a ported family,
  asserting the supervised sweep still lands on the serial answer.
"""

from __future__ import annotations

import inspect
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, health
from repro.core.registry import available_schemes, make_predictor
from repro.sim import _cstep, kernels
from repro.sim.engine import run
from repro.sim.fused import plan_families
from repro.verify.differential import diff_spec
from repro.verify.oracle import (
    oracle_detailed,
    oracle_rate,
    oracle_supports,
    oracle_supports_detailed,
)
from tests.conftest import (
    ALL_SPECS,
    PORTED_GRID,
    dispatch_as,
    make_toy_trace,
    scalar_predictions,
)

#: scheme -> kernel kind for every PORTED_GRID spec, resolved once.
GRID_KINDS = {spec: kernels.kernel_for_spec(spec)[0] for spec in PORTED_GRID}


@pytest.fixture(autouse=True)
def clean_health():
    health.clear()
    yield
    health.clear()


@lru_cache(maxsize=None)
def _trace(kind: str):
    if kind == "toy":
        return make_toy_trace()
    return make_toy_trace(length=1500, seed=13, num_branches=96)


@lru_cache(maxsize=None)
def _scalar_rate(spec: str, trace_kind: str) -> float:
    trace = _trace(trace_kind)
    return run(make_predictor(spec), trace).misprediction_rate


class TestRegistryCompleteness:
    """Satellite: a future scheme cannot register silently.

    Each assertion fails with the offending scheme's name, so the
    remediation ("declare a tier / write an oracle / freeze a golden
    row") is readable from the failure alone.
    """

    def test_every_registered_scheme_declares_a_kernel_tier(self):
        tiers = kernels.registered_schemes()
        for scheme in available_schemes():
            assert scheme in tiers, (
                f"scheme {scheme!r} is registered in core/registry.py but "
                "declares no kernel tier in sim/kernels.py — port it (PORTED); "
                "the SCALAR_ONLY escape hatch is retired and must stay empty"
            )

    def test_registry_declares_no_phantom_schemes(self):
        registered = set(available_schemes())
        for scheme in kernels.registered_schemes():
            assert scheme in registered, (
                f"sim/kernels.py declares {scheme!r} but core/registry.py "
                "does not register it"
            )

    def test_every_registered_scheme_has_an_oracle(self):
        from tests.test_golden import GOLDEN_SPECS

        example = {spec.split(":", 1)[0]: spec for spec in GOLDEN_SPECS}
        for scheme in available_schemes():
            spec = example.get(scheme)
            assert spec is not None, f"no example spec for scheme {scheme!r}"
            assert oracle_supports(spec), (
                f"scheme {scheme!r} has no oracle implementation in "
                "verify/oracle.py"
            )

    def test_every_registered_scheme_has_a_golden_row(self):
        import json

        from tests.test_golden import GOLDEN_PATH

        rates = json.loads(GOLDEN_PATH.read_text())["rates"]
        frozen = {spec.split(":", 1)[0] for spec in rates}
        for scheme in available_schemes():
            assert scheme in frozen, (
                f"scheme {scheme!r} has no golden fixture row — add a spec "
                "to tests/test_golden.py GOLDEN_SPECS and regenerate"
            )

    def test_scalar_allowlist_is_explicit_and_disjoint(self):
        tiers = kernels.registered_schemes()
        scalar = {s for s, tier in tiers.items() if tier == "scalar"}
        assert scalar == set(kernels.SCALAR_ONLY)
        assert not (set(kernels.PORTED) & kernels.SCALAR_ONLY)

    def test_scalar_only_tier_is_retired(self):
        """ISSUE 9 acceptance: every registered scheme has a batch
        kernel; nothing is allowed to hide behind the scalar tier."""
        assert kernels.SCALAR_ONLY == frozenset()
        assert set(kernels.PORTED) == set(available_schemes())
        for scheme, tier in kernels.registered_schemes().items():
            assert tier != "scalar", scheme

    def test_step_is_the_one_scalar_reference(self):
        """Every scheme's scalar semantics live in ``predict``/``update``
        alone: bi-mode is the only predictor that keeps a hand-tuned
        ``simulate`` loop, and none overrides ``simulate_detailed``."""
        from repro.core.bimode import BiModePredictor
        from repro.core.interfaces import BranchPredictor

        for spec in ALL_SPECS:
            make_predictor(spec)  # imports every registered predictor module
        classes, stack = [], [BranchPredictor]
        while stack:
            for sub in stack.pop().__subclasses__():
                stack.append(sub)
                if sub.__module__.startswith("repro."):
                    classes.append(sub)
        assert BiModePredictor in classes
        for cls in classes:
            assert "simulate_detailed" not in vars(cls), cls.__name__
            if cls is not BiModePredictor:
                assert "simulate" not in vars(cls), cls.__name__

    @pytest.mark.parametrize("spec", PORTED_GRID)
    def test_every_scheme_answers_the_attribution_hooks(self, spec):
        predictor = make_predictor(spec)
        num_counters = predictor._num_detail_counters()
        assert num_counters > 0, spec
        for pc in _trace("toy").pcs[:50].tolist():
            assert 0 <= predictor._counter_id(pc) < num_counters, spec

    @pytest.mark.parametrize("spec", PORTED_GRID)
    def test_detailed_loop_continues_across_chunks(self, spec):
        """Two ``simulate_detailed`` calls without a reset in between
        equal one call over the whole trace: the generic loop steps the
        live predictor, so chunked Section-4 runs keep their state."""
        trace = _trace("aliasing")
        k = len(trace) // 3
        whole = make_predictor(spec).simulate_detailed(trace)
        predictor = make_predictor(spec)
        head = predictor.simulate_detailed(trace[:k])
        tail = predictor.simulate_detailed(trace[k:])
        assert np.array_equal(
            np.concatenate([head.result.predictions, tail.result.predictions]),
            whole.result.predictions,
        ), spec
        assert np.array_equal(
            np.concatenate([head.counter_ids, tail.counter_ids]), whole.counter_ids
        ), spec

    def test_tiers_are_known_values(self):
        for scheme, tier in kernels.registered_schemes().items():
            assert tier in ("lane", "cloop", "vectorized", "scalar"), (scheme, tier)

    def test_at_least_seven_newly_ported_schemes(self):
        """ISSUE acceptance: >= 7 schemes beyond gshare/bimode run
        through lane-batched kernels."""
        ported = [s for s, t in kernels.registered_schemes().items() if t in ("lane", "cloop")]
        assert len(ported) >= 7, ported

    def test_every_registered_scheme_has_a_detailed_tier(self):
        """Every scheme's Section-4 pipeline runs batched: its PORTED
        entry's one per-lane hook, ``detailed``, is what both rates and
        attribution fall back to."""
        for scheme in available_schemes():
            entry = kernels.PORTED.get(scheme)
            assert entry is not None and callable(entry.detailed), (
                f"scheme {scheme!r} has no batch attribution kernel — wire "
                "a `detailed` callable into its PORTED entry in "
                "sim/kernels.py (lane kernel in sim/lanes.py, compiled "
                "loop in sim/_cstep.py)"
            )

    def test_every_registered_scheme_has_detailed_oracle_coverage(self):
        """The dict-based oracle must attribute counter ids for every
        scheme, or the detailed kernels have nothing to answer to."""
        from tests.test_golden import GOLDEN_SPECS

        example = {spec.split(":", 1)[0]: spec for spec in GOLDEN_SPECS}
        for scheme in available_schemes():
            spec = example.get(scheme)
            assert spec is not None, f"no example spec for scheme {scheme!r}"
            assert oracle_supports_detailed(spec), (
                f"scheme {scheme!r} has no counter-id attribution in "
                "verify/oracle.py — add a `counter_id` method to its oracle"
            )

    def test_every_detailed_kernel_has_a_golden_row(self):
        """Each distinct detailed kernel implementation (the two-level
        family and the statics share one each) must answer to a frozen
        Section-4 summary in tests/golden/detailed.json."""
        from tests.test_golden import DETAILED_SPECS

        frozen_kernels = {
            kernels.PORTED[scheme].detailed
            for scheme in {spec.split(":", 1)[0] for spec in DETAILED_SPECS}
            if scheme in kernels.PORTED
        }
        for scheme, entry in kernels.PORTED.items():
            if scheme in ("gshare", "bimode"):
                # their attribution predates detailed.json and answers
                # to the oracle in TestDetailedEquivalence instead
                continue
            assert entry.detailed in frozen_kernels, (
                f"the detailed kernel behind {scheme!r} has no frozen "
                "Section-4 summary — add a spec to tests/test_golden.py "
                "DETAILED_SPECS and regenerate tests/golden/detailed.json"
            )

    def test_family_order_spans_every_kind(self):
        order = kernels.family_order()
        assert order[0] == "gshare"
        assert order[-1] == "scalar"
        assert set(order) == {"gshare", "bimode", "scalar", *kernels.PORTED}

    def test_ported_grid_covers_every_ported_scheme_twice(self):
        for scheme, entry in kernels.PORTED.items():
            sizes = [s for s in PORTED_GRID if s.split(":", 1)[0] == scheme]
            # the knob-less statics admit exactly one spec spelling;
            # everything else needs >= 2 geometries
            want = 1 if kernels.kernel_for_spec(scheme)[1] is not None else 2
            assert len(sizes) >= want, (
                f"PORTED_GRID needs >= {want} size(s) of {scheme!r}"
            )


class TestKernelForSpec:
    @pytest.mark.parametrize("spec", PORTED_GRID)
    def test_grid_specs_resolve_to_their_scheme(self, spec):
        kind, lane = kernels.kernel_for_spec(spec)
        assert kind == spec.split(":", 1)[0]
        assert lane is not None

    def test_fused_families_keep_their_kind(self):
        assert kernels.kernel_for_spec("gshare:index=8,hist=4")[0] == "gshare"
        assert kernels.kernel_for_spec("bimode:dir=6,hist=6,choice=6")[0] == "bimode"

    @pytest.mark.parametrize(
        "spec",
        [
            "perceptron:index=6,hist=8,w=1",  # weights need >= 2 bits
            "biasfilter:table=8,run=2,sub=bimode,sub_index=6",  # no kernel lane for the sub
            "btfnt:mode=odd",  # statics take no knobs
            "agree:index=8,flavor=mild",  # unknown knob -> scalar raises it
            "bimodal:index=30",  # out-of-range geometry
            "gskew:bank=7,update=sideways",
            "gskew:bank=5,hist=63",  # wider than the history register
            "gshare:index=25,hist=4",  # wider than a counter table
            "bimode:dir=25,hist=4,choice=4",
            "bimode:dir=4,hist=4,choice=25",
            "gap:hist=4,addr=0",  # GAs-family schemes need a select bit
            "not a spec",
        ],
    )
    def test_unported_and_malformed_specs_fall_to_scalar(self, spec):
        assert kernels.kernel_for_spec(spec) == ("scalar", None)

    @pytest.mark.parametrize(
        "spec",
        [
            "gshare:index=25,hist=4",
            "bimode:dir=25,hist=4,choice=4",
            "bimode:dir=4,hist=4,choice=25",
            "gap:hist=4,addr=0",
        ],
    )
    def test_oversized_tables_raise_in_sweeps(self, spec):
        """A spec the constructor refuses (a table wider than a counter
        table may be, a GAs-family scheme without a select bit) raises
        that constructor's own error under the default dispatch too,
        instead of running a lane that the scalar engine would refuse."""
        from repro.sim.runner import evaluate_specs

        with pytest.raises(ValueError) as refused:
            make_predictor(spec)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            evaluate_specs([spec], _trace("toy"))

    def test_lane_parsers_mirror_scalar_defaults(self):
        """Defaulted and explicit spellings of the same configuration
        must resolve to the same lane."""
        assert kernels.kernel_for_spec("agree:index=8") == kernels.kernel_for_spec(
            "agree:index=8,hist=8,bias=8"
        )
        assert kernels.kernel_for_spec("yags:choice=6,cache=5") == (
            kernels.kernel_for_spec("yags:choice=6,cache=5,hist=5,tag=6")
        )
        assert kernels.kernel_for_spec("gskew:bank=6") == kernels.kernel_for_spec(
            "gskew:bank=6,hist=6,update=enhanced"
        )
        assert kernels.kernel_for_spec("tournament:index=7") == (
            kernels.kernel_for_spec("tournament:index=7,meta=7")
        )
        assert kernels.kernel_for_spec("perceptron:index=6") == (
            kernels.kernel_for_spec("perceptron:index=6,hist=12,w=8")
        )
        assert kernels.kernel_for_spec("biasfilter:sub_index=8") == (
            kernels.kernel_for_spec(
                "biasfilter:table=12,run=3,sub=gshare,sub_index=8,sub_hist=8"
            )
        )


class TestEquivalence:
    """Every ported spec x {default dispatch, compiler vetoed} x two
    trace shapes, against the scalar engine and the dict-based oracle —
    the bit-exactness acceptance criterion."""

    @pytest.mark.parametrize("trace_kind", ["toy", "aliasing"])
    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    def test_grid_rates_match_scalar_and_oracle(self, mode, trace_kind):
        trace = _trace(trace_kind)
        drifted = []
        for family in plan_families(PORTED_GRID):
            assert family.kind != "scalar", family.specs
            with dispatch_as(mode):
                rates = kernels.family_rates(
                    family.kind, family.specs, family.lanes, trace
                )
            for spec, rate in zip(family.specs, rates):
                want = _scalar_rate(spec, trace_kind)
                if rate != want or rate != oracle_rate(spec, trace):
                    drifted.append(f"{spec} [{mode}/{trace_kind}]")
        assert not drifted, drifted

    @pytest.mark.parametrize("spec", PORTED_GRID)
    def test_predictions_match_step_interface(self, spec):
        """Per-branch bit-identity (not just equal rates) under the
        default auto dispatch."""
        trace = _trace("toy")
        kind, lane = kernels.kernel_for_spec(spec)
        (row,) = kernels.family_detailed(kind, [spec], [lane], trace)
        preds = row.result.predictions
        expected = scalar_predictions(spec, trace)
        diverging = np.flatnonzero(preds != expected)
        assert diverging.size == 0, (
            f"{spec}: first divergence at branch {diverging[:1]}"
        )

    def test_rates_are_exact_rationals(self):
        """Registry rates are miss/length in float — the same division
        the scalar engine performs, so equality above is exact."""
        trace = _trace("toy")
        kind, lane = kernels.kernel_for_spec("agree:index=8,hist=8")
        (rate,) = kernels.family_rates(kind, ["agree:index=8,hist=8"], [lane], trace)
        frac = Fraction(rate).limit_denominator(len(trace))
        assert frac.denominator == len(trace) or rate == 0.0

    def test_empty_trace(self):
        from tests.conftest import make_trace

        empty = make_trace([], [])
        for spec in ("agree:index=6", "trimode:dir=5", "pag:hist=4,bht=4"):
            kind, lane = kernels.kernel_for_spec(spec)
            assert kernels.family_rates(kind, [spec], [lane], empty) == [0.0]


#: The compiled comparators whose ``family`` hook rates a family with
#: one loop per lane over the raw trace, at ordinary and boundary
#: geometries: 0-bit tables, 30-bit YAGS tags, the widest history.
COMPARATOR_BOUNDARY_SPECS = [
    "agree:index=6,hist=6",
    "agree:index=0",
    "agree:index=6,hist=6,bias=0",
    "tournament:index=5,meta=5",
    "tournament:index=5,meta=0",
    "tournament:index=0,meta=0",
    "gskew:bank=5,hist=5",
    "gskew:bank=0,hist=0",
    "gskew:bank=4,hist=62,update=total",
    "trimode:dir=5,hist=5,choice=5",
    "trimode:dir=5,hist=5,choice=0",
    "trimode:dir=0",
    "yags:choice=6,cache=5,hist=5,tag=6",
    "yags:choice=6,cache=0,hist=0",
    "yags:choice=6,cache=5,hist=5,tag=30",
    "yags:choice=0,cache=4,hist=4,tag=30",
    "perceptron:index=4,hist=8",
    "perceptron:index=0,hist=0",
    "perceptron:index=3,hist=62",
    "biasfilter:table=6,run=2,sub_index=6,sub_hist=6",
    "biasfilter:table=0,run=1,sub=bimodal,sub_index=0",
]


@lru_cache(maxsize=None)
def _boundary_trace(kind: str):
    """Boundary traces: empty, one branch, and 300 branches (so every
    history register wraps past 64 bits) over small or >= 2**32 pcs."""
    from tests.conftest import make_trace

    if kind == "empty":
        return make_trace([], [])
    if kind == "one-branch":
        return make_trace([2**33 + 4], [True])
    rng = np.random.default_rng(29)
    base = 2**32 if kind == "wide-pcs" else 0
    sites = base + rng.integers(0, 2**30, size=20, dtype=np.int64) * 4
    if kind == "wide-pcs":
        sites[:4] = rng.integers(2**40, 2**62, size=4, dtype=np.int64)
        # sites differing only in the top bit of a 30-bit YAGS tag
        sites[4:6] = sites[6] + np.array([2**33, 2**34])
    pcs = rng.choice(sites, size=300)
    # per-site bias plus a period-3 pattern, so tables and caches train
    bias = rng.random(len(sites))[np.searchsorted(np.sort(sites), pcs)]
    outcomes = (rng.random(300) < bias) ^ (np.arange(300) % 3 == 0)
    return make_trace(pcs, outcomes, name=kind)


#: The other schemes at the boundaries: ordinary geometries, 0-bit
#: tables, and (gshare, bi-mode) the ablation knobs.
SCHEME_BOUNDARY_SPECS = [
    "gshare:index=6,hist=6",
    "gshare:index=0,hist=0",
    "gshare:index=6,hist=0",
    "bimode:dir=5,hist=5,choice=5",
    "bimode:dir=0,hist=0,choice=0",
    "bimode:dir=5,hist=3,choice=4,full_update=1,choice_hist=1",
    "bimodal:index=6",
    "bimodal:index=0",
    "bimodal:index=4,bits=3",
    "gag:hist=8",
    "gag:hist=0",
    "gas:hist=4,select=2",
    "gselect:hist=3,addr=3",
    "gap:hist=4,addr=2",
    "pag:hist=6,bht=4",
    "pag:hist=0,bht=0",
    "pas:hist=4,select=2,bht=3",
    "pap:hist=3,addr=2,bht=0",
    "always-taken",
    "always-not-taken",
    "btfnt",
]

BOUNDARY_TRACES = ["empty", "one-branch", "history-wrap", "wide-pcs"]


def _engine_runs(spec, trace):
    """``(engine, rate, row)`` of one spec through the registry's default
    dispatch (the compiled engine when a compiler exists), again with
    the compiler vetoed (``REPRO_NO_CC=1``), and through the predictor's
    own ``simulate`` / ``simulate_detailed`` reference."""
    kind, lane = kernels.kernel_for_spec(spec)
    assert kind == spec.split(":")[0], spec
    for mode in ("auto", "numpy"):
        with dispatch_as(mode):
            engine = kernels.default_engine(kernels.PORTED[kind].tier)
            (rate,) = kernels.family_rates(kind, [spec], [lane], trace)
            (row,) = kernels.family_detailed(kind, [spec], [lane], trace)
        yield engine, rate, row
    rate = make_predictor(spec).simulate(trace).misprediction_rate
    yield "reference", rate, make_predictor(spec).simulate_detailed(trace)


def _assert_engines_match_oracle(spec, trace):
    """``family_rates`` and the ``family_detailed`` predictions and
    counter ids of one spec, under every engine of :func:`_engine_runs`,
    all equal the oracle's — and the rate is the miss share of those
    predictions."""
    want_preds, want_ids = oracle_detailed(spec, trace)
    n = len(trace)
    want_rate = int(np.count_nonzero(want_preds != trace.outcomes)) / n if n else 0.0
    assert oracle_rate(spec, trace) == want_rate
    for engine, rate, row in _engine_runs(spec, trace):
        assert rate == want_rate, engine
        assert np.array_equal(row.result.predictions, want_preds), engine
        assert np.array_equal(row.counter_ids, want_ids), engine


class TestComparatorBoundaries:
    """The compiled comparators' ``family`` rate at the boundaries: it
    equals the miss share of the family's predictions and the oracle
    under ``c``, and the compiler-vetoed dispatch and the predictor's
    reference give the same rates, predictions and counter ids."""

    @pytest.mark.parametrize("trace_kind", BOUNDARY_TRACES)
    @pytest.mark.parametrize("spec", COMPARATOR_BOUNDARY_SPECS)
    def test_family_rate_matches_predictions_and_oracle(self, spec, trace_kind):
        kind = spec.split(":")[0]
        assert kernels.PORTED[kind].family is not None
        _assert_engines_match_oracle(spec, _boundary_trace(trace_kind))

    def test_family_hook_rates_every_lane_of_a_family(self):
        """One ``family`` call over a multi-lane family equals the lanes
        rated one by one."""
        if not _cstep.available():
            pytest.skip(_cstep.unavailable_reason())
        trace = _boundary_trace("wide-pcs")
        families = {}
        for spec in COMPARATOR_BOUNDARY_SPECS:
            kind, lane = kernels.kernel_for_spec(spec)
            families.setdefault(kind, []).append((spec, lane))
        for kind, members in families.items():
            specs, lanes = zip(*members)
            together = kernels.family_rates(kind, specs, lanes, trace)
            alone = [
                kernels.family_rates(kind, [spec], [lane], trace)[0]
                for spec, lane in members
            ]
            assert together == alone, kind
        engines = {e.actual for e in health.events() if e.component.endswith("-kernel")}
        assert engines == {"c"}


#: A multi-lane gshare family of mixed index widths and history
#: lengths (81 lanes), for traces that straddle the fused loop's blocks.
BLOCK_FAMILY = [f"gshare:index={i},hist={h}" for i in range(4, 13) for h in range(i + 1)]

#: One branch short of a block, exactly one, one over, and three full
#: blocks plus a partial one.
BLOCK_LENGTHS = [
    _cstep.GSHARE_BLOCK - 1,
    _cstep.GSHARE_BLOCK,
    _cstep.GSHARE_BLOCK + 1,
    3 * _cstep.GSHARE_BLOCK + 7,
]


@lru_cache(maxsize=None)
def _block_trace(length: int):
    """A prefix of one trace over 400 sites spread past 12 index bits,
    with per-site bias and a period-5 pattern, so tables and history
    carry state across every block edge."""
    from tests.conftest import make_trace

    rng = np.random.default_rng(31)
    n = max(BLOCK_LENGTHS)
    sites = rng.integers(0, 2**20, size=400, dtype=np.int64) * 4
    site = rng.integers(0, len(sites), size=n)
    outcomes = (rng.random(n) < rng.random(len(sites))[site]) ^ (np.arange(n) % 5 == 0)
    return make_trace(sites[site][:length], outcomes[:length], name=f"block-{length}")


class TestSchemeBoundaries:
    """The same boundary traces for gshare, bi-mode, bimodal, the
    two-level family and the statics: rates, predictions and counter
    ids equal the oracle's under every engine."""

    @pytest.mark.parametrize("trace_kind", BOUNDARY_TRACES)
    @pytest.mark.parametrize("spec", SCHEME_BOUNDARY_SPECS)
    def test_engines_match_oracle(self, spec, trace_kind):
        _assert_engines_match_oracle(spec, _boundary_trace(trace_kind))

    def test_gshare_block_mirrors_the_c_source(self):
        assert f"enum {{ B = {_cstep.GSHARE_BLOCK} }};" in _cstep._C_SOURCE

    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_gshare_family_straddles_blocks(self, length):
        """Every lane of a mixed gshare family rated in one call equals
        the oracle on traces that end inside, at and past a block edge
        of the lane-major fused loop, on the compiled and numpy
        engines (the default dispatch, and with the compiler vetoed)."""
        trace = _block_trace(length)
        assert len(trace) == length
        lanes = [kernels.kernel_for_spec(spec)[1] for spec in BLOCK_FAMILY]
        want = [oracle_rate(spec, trace) for spec in BLOCK_FAMILY]
        for mode in ("auto", "numpy"):
            with dispatch_as(mode):
                got = kernels.family_rates("gshare", BLOCK_FAMILY, lanes, trace)
            assert got == want, mode


#: Degenerate configurations of two schemes that are one predictor by
#: the schemes' definitions (Mittal's survey, arXiv 1804.00261), each
#: with the reason.
IDENTITIES = [
    ("gshare:index=10,hist=0", "bimodal:index=10",
     "gshare XORs no history bits into its PC index"),
    ("gselect:hist=0,addr=10", "bimodal:index=10",
     "gselect concatenates no history bits to its 10 address bits"),
    ("gas:hist=0,select=10", "bimodal:index=10",
     "GAs selects one of 2**10 one-counter PHTs by address alone"),
    ("pag:hist=8,bht=0", "gag:hist=8",
     "a one-entry BHT is one history register shared by every branch"),
    ("pas:hist=6,select=4,bht=0", "gas:hist=6,select=4",
     "a one-entry BHT turns PAs's per-address history global"),
    ("pap:hist=6,addr=4,bht=0", "gap:hist=6,addr=4",
     "a one-entry BHT turns PAp's per-address history global"),
    ("biasfilter:table=10,run=3,sub=bimodal,sub_index=10",
     "biasfilter:table=10,run=3,sub_index=10,sub_hist=0",
     "a gshare sub-predictor with no history is a bimodal table"),
]


@lru_cache(maxsize=None)
def _identity_trace(kind: str):
    if kind != "gcc-100k":
        return _boundary_trace(kind)
    from repro.workloads.generator import generate_trace
    from repro.workloads.profiles import get_profile

    return generate_trace(get_profile("gcc"), length=100_000, seed=0)


class TestCrossSchemeIdentities:
    """Checks that are not another implementation of the same scheme:
    each pair gives equal rates and equal per-branch predictions under
    the default dispatch, with the compiler vetoed and on the
    predictors' own reference, and equals the oracle."""

    @pytest.mark.parametrize("trace_kind", [*BOUNDARY_TRACES, "gcc-100k"])
    @pytest.mark.parametrize(
        "left, right, reason", IDENTITIES, ids=[pair[0] for pair in IDENTITIES]
    )
    def test_pair_is_one_predictor(self, left, right, reason, trace_kind):
        trace = _identity_trace(trace_kind)
        want = oracle_rate(left, trace)
        assert oracle_rate(right, trace) == want, reason
        pairs = zip(_engine_runs(left, trace), _engine_runs(right, trace))
        for (engine, left_rate, left_row), (_, right_rate, right_row) in pairs:
            assert left_rate == right_rate == want, (engine, reason)
            assert np.array_equal(
                left_row.result.predictions, right_row.result.predictions
            ), (engine, reason)


@lru_cache(maxsize=None)
def _scalar_detailed_cell(spec: str, trace_kind: str):
    detailed = make_predictor(spec).simulate_detailed(_trace(trace_kind))
    return (
        detailed.result.predictions,
        detailed.counter_ids,
        detailed.num_counters,
    )


class TestDetailedEquivalence:
    """Every ported spec's Section-4 attribution, under the default
    dispatch and with the compiler vetoed, on two trace shapes,
    against the scalar ``simulate_detailed`` loop and the dict-based
    oracle — predictions AND per-access counter ids, bit for bit."""

    @pytest.mark.parametrize("trace_kind", ["toy", "aliasing"])
    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    def test_grid_attribution_matches_scalar(self, mode, trace_kind):
        trace = _trace(trace_kind)
        drifted = []
        for family in plan_families(PORTED_GRID):
            assert family.kind != "scalar", family.specs
            with dispatch_as(mode):
                rows = kernels.family_detailed(
                    family.kind, family.specs, family.lanes, trace
                )
            for spec, got in zip(family.specs, rows):
                want_p, want_c, want_n = _scalar_detailed_cell(spec, trace_kind)
                if (
                    got.num_counters != want_n
                    or not np.array_equal(got.result.predictions, want_p)
                    or not np.array_equal(got.counter_ids, want_c)
                ):
                    drifted.append(f"{spec} [{mode}/{trace_kind}]")
        assert not drifted, drifted

    @pytest.mark.parametrize("spec", PORTED_GRID)
    def test_counter_ids_match_oracle(self, spec):
        """The oracle attributes independently of the lane kernels; a
        kernel that predicts right but charges the wrong counter is
        caught here by spec name."""
        trace = _trace("toy")
        assert oracle_supports_detailed(spec), spec
        o_preds, o_ids = oracle_detailed(spec, trace)
        kind, lane = kernels.kernel_for_spec(spec)
        (got,) = kernels.family_detailed(kind, [spec], [lane], trace)
        assert np.array_equal(got.result.predictions, o_preds), spec
        assert np.array_equal(got.counter_ids, o_ids), spec

    def test_detailed_shares_family_history_pass(self):
        """Several lanes of one family resolve in one call (the numpy
        engine shares their history streams); per-lane answers stay
        per-cell."""
        specs = ["agree:index=6,hist=6", "agree:index=8,hist=4,bias=6"]
        trace = _trace("toy")
        lanes = [kernels.kernel_for_spec(s)[1] for s in specs]
        rows = kernels.family_detailed("agree", specs, lanes, trace)
        assert len(rows) == 2
        for spec, got in zip(specs, rows):
            want_p, want_c, want_n = _scalar_detailed_cell(spec, "toy")
            assert got.num_counters == want_n, spec
            assert np.array_equal(got.result.predictions, want_p), spec
            assert np.array_equal(got.counter_ids, want_c), spec

    @pytest.mark.parametrize(
        "knobs",
        [
            {"full_update": True},
            {"choice_uses_history": True},
            {"full_update": True, "choice_uses_history": True},
        ],
    )
    def test_bimode_ablation_predictors_stay_batched(self, knobs):
        """Hand-built bi-mode ablation predictors read as bi-mode lanes
        and keep ``run_detailed`` on the batch path, bit-identical to
        their scalar loop."""
        from repro.core.bimode import BiModePredictor
        from repro.sim.engine import run_detailed

        trace = _trace("aliasing")
        predictor = BiModePredictor(6, 4, 5, **knobs)
        kind, lane = kernels.lane_of(predictor)
        assert kind == "bimode", lane
        got = run_detailed(predictor, trace)
        (event,) = health.events(component="detailed-kernel")
        # batched wherever bi-mode's compiled loop can run
        assert event.actual == ("batch" if _cstep.available() else "scalar"), event
        want = BiModePredictor(6, 4, 5, **knobs).simulate_detailed(trace)
        assert np.array_equal(got.result.predictions, want.result.predictions)
        assert np.array_equal(got.counter_ids, want.counter_ids)
        assert got.num_counters == want.num_counters

    def test_empty_trace(self):
        from tests.conftest import make_trace

        empty = make_trace([], [])
        for spec in ("agree:index=6", "trimode:dir=5", "btfnt"):
            kind, lane = kernels.kernel_for_spec(spec)
            (got,) = kernels.family_detailed(kind, [spec], [lane], empty)
            assert got.num_branches == 0 and len(got.counter_ids) == 0
            assert got.num_counters > 0


class TestDispatch:
    def test_invalid_pin_raises(self):
        """No in-process caller pins an engine, and no per-lane kernel
        takes one."""
        kind, lane = kernels.kernel_for_spec("agree:index=6")
        with pytest.raises(TypeError, match="mode"):
            kernels.family_rates(
                kind, ["agree:index=6"], [lane], _trace("toy"), mode="sideways"
            )
        for entry in kernels.PORTED.values():
            assert "engine" not in inspect.signature(entry.detailed).parameters
        with pytest.raises(TypeError, match="positional"):
            kernels.PORTED[kind].detailed(lane, _trace("toy"), "sideways", None)

    def test_forced_c_without_compiler_raises(self):
        """A compiled-only per-lane kernel never falls back silently."""
        for spec in ("agree:index=6", "bimodal:index=6", "pas:hist=4,select=2,bht=4"):
            kind, lane = kernels.kernel_for_spec(spec)
            with faults.deny_compiler():
                with pytest.raises(RuntimeError, match="not available"):
                    kernels.PORTED[kind].detailed(lane, _trace("toy"), None)

    @pytest.mark.parametrize(
        "spec",
        [
            "trimode:dir=5,hist=3,choice=5",
            "perceptron:index=5,hist=6",
            "agree:index=6,hist=6",
            "gskew:bank=5,hist=5,update=total",
            "tournament:index=6,meta=5",
            "biasfilter:table=6,run=2,sub_index=6,sub_hist=4",
            "bimodal:index=6,bits=3",
            "gas:hist=4,select=2",
            "pap:hist=3,addr=3,bht=4",
        ],
        ids=lambda spec: spec.split(":", 1)[0],
    )
    def test_numpy_pin_degrades_cloop_schemes_to_scalar(self, spec):
        """The comparators, bimodal and the two-level family keep only
        their C loop (cloop tier), so with the compiler vetoed they run
        their scalar reference — health-reported, bit-exact."""
        kind, lane = kernels.kernel_for_spec(spec)
        with faults.deny_compiler():
            rates = kernels.family_rates(kind, [spec], [lane], _trace("toy"))
        (event,) = health.events(component=f"{kind}-kernel")
        assert (event.expected, event.actual) == ("c", "scalar")
        assert event.severity == "degraded"
        assert "no numpy kernel" in event.reason
        assert rates == [_scalar_rate(spec, "toy")]

    def test_numpy_pin_keeps_counter_major_on_numpy(self):
        """With the compiler vetoed gshare, the one ``lane`` scheme,
        rates through its counter-major numpy form, and its Section-4
        attribution runs the scalar reference, each health-reported
        under the engine that ran."""
        spec = "gshare:index=6,hist=4"
        kind, lane = kernels.kernel_for_spec(spec)
        assert [s for s, e in kernels.PORTED.items() if e.tier == "lane"] == ["gshare"]
        with faults.deny_compiler():
            rates = kernels.family_rates(kind, [spec], [lane], _trace("toy"))
            (event,) = health.events(component="gshare-kernel")
            assert (event.expected, event.actual) == ("c", "numpy")
            assert "REPRO_NO_CC" in event.reason
            health.clear()
            (row,) = kernels.family_detailed(kind, [spec], [lane], _trace("toy"))
        (event,) = health.events(component="detailed-kernel")
        assert (event.actual, event.severity) == ("scalar", "degraded")
        assert "no numpy attribution kernel for gshare" in event.reason
        (event,) = health.events(component="gshare-kernel")
        assert (event.expected, event.actual) == ("c", "scalar")
        assert event.severity == "degraded"
        assert "no numpy attribution kernel for gshare" in event.reason
        assert rates == [_scalar_rate(spec, "toy")]
        want = make_predictor(spec).simulate_detailed(_trace("toy"))
        assert np.array_equal(row.result.predictions, want.result.predictions)
        assert np.array_equal(row.counter_ids, want.counter_ids)

    def test_unsupported_biasfilter_sub_is_vetoed_by_name(self):
        """A bias-filter spec the kernel cannot run — its sub-predictor
        has no kernel lane, or its run counters are wider than the
        loop's int8 — routes scalar, and the planner names the veto in a
        health event rather than hiding it behind the generic unfusable
        reason.  A spec the constructor refuses gets no veto: its run
        raises the constructor's error."""
        from repro.sim.fused import family_rates as fused_rates

        vetoed = {
            "biasfilter:table=5,run=2,sub=bimode,sub_index=5,sub_hist=3": ("'bimode'", "gshare"),
            "biasfilter:table=6,run=8,sub_index=6,sub_hist=4": ("run=8",),
        }
        for spec, named in vetoed.items():
            health.clear()
            (family,) = plan_families([spec])
            assert family.kind == "scalar"
            rates = fused_rates(family, _trace("toy"))
            (event,) = health.events(component="biasfilter-kernel")
            assert event.actual == "scalar"
            assert event.severity == "degraded"
            assert all(word in event.reason for word in named), spec
            assert rates == {spec: _scalar_rate(spec, "toy")}

        health.clear()
        refused = "biasfilter:table=6,sub=foo,sub_index=6"
        (family,) = plan_families([refused])
        assert family.kind == "scalar"
        with pytest.raises(ValueError, match="'foo'"):
            fused_rates(family, _trace("toy"))
        assert health.events(component="biasfilter-kernel") == []

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("perceptron:index=5,hist=6,w=31", "w=31"),
            ("yags:choice=8,cache=6,hist=6,tag=31", "tag=31"),
            ("bimodal:index=6,bits=8", "bits=8"),
        ],
    )
    def test_kernel_limit_is_vetoed_by_name(self, spec, named):
        """A configuration its constructor accepts but a kernel's integer
        width cannot hold routes scalar with its limit named under
        ``<scheme>-kernel``; the planner's own event says "kernel veto",
        keeping "unfusable" for schemes the registry has never heard of."""
        from repro.sim.fused import family_rates as fused_rates

        (family,) = plan_families([spec])
        assert family.kind == "scalar"
        rates = fused_rates(family, _trace("toy"))
        (event,) = health.events(component=f"{spec.split(':')[0]}-kernel")
        assert (event.actual, event.severity) == ("scalar", "degraded")
        assert named in event.reason
        (planner,) = health.events(component="sweep-planner")
        assert planner.reason == f"kernel veto: {spec.split(':')[0]}"
        assert rates == {spec: _scalar_rate(spec, "toy")}

    def test_vetoes_of_one_family_are_each_named(self):
        from repro.sim.fused import family_rates as fused_rates

        specs = ["perceptron:index=5,hist=6,w=31", "yags:choice=8,cache=6,hist=6,tag=31"]
        (family,) = plan_families(specs)
        fused_rates(family, _trace("toy"))
        assert [e.component for e in health.events() if e.component.endswith("-kernel")] == [
            "perceptron-kernel",
            "yags-kernel",
        ]
        (planner,) = health.events(component="sweep-planner")
        assert planner.reason == "kernel veto: perceptron, yags"

    def test_live_predictor_vetoes_are_named(self):
        """The vetoes only a built predictor can carry — an unpaired
        tournament, a custom BTFNT classifier — are named by
        ``run_detailed`` as it falls back to the per-branch loop."""
        from repro.predictors.bimodal import BimodalPredictor
        from repro.predictors.gshare import GSharePredictor
        from repro.predictors.static_ import BTFNTPredictor
        from repro.predictors.tournament import TournamentPredictor
        from repro.sim.engine import run_detailed

        trace = _trace("toy")
        unpaired = TournamentPredictor(
            component_a=GSharePredictor(index_bits=6),
            component_b=BimodalPredictor(index_bits=6),
            meta_index_bits=6,
        )
        for predictor, component, named in [
            (unpaired, "tournament-kernel", "pairing"),
            (BTFNTPredictor(backward=lambda pc: True), "btfnt-kernel", "classifier"),
        ]:
            health.clear()
            assert kernels.lane_of(predictor) == ("scalar", None)
            detailed = run_detailed(predictor, trace)
            (event,) = health.events(component=component)
            assert (event.actual, event.severity) == ("scalar", "degraded")
            assert named in event.reason
            predictor.reset()
            expected = predictor.simulate_detailed(trace)
            assert np.array_equal(detailed.result.predictions, expected.result.predictions)

    def test_unknown_scheme_stays_unfusable(self):
        from repro.sim.fused import SpecFamily, family_rates as fused_rates

        family = SpecFamily(kind="scalar", specs=("nosuch:index=4",), lanes=(None,))
        with pytest.raises(ValueError, match="unknown predictor scheme"):
            fused_rates(family, _trace("toy"))
        (planner,) = health.events(component="sweep-planner")
        assert planner.reason == "unfusable scheme(s): nosuch"
        assert [e for e in health.events() if e.component.endswith("-kernel")] == []

    @pytest.mark.parametrize("spec", ["always-taken", "always-not-taken", "btfnt"])
    def test_static_direct_rates_match_prediction_path(self, spec):
        """The statics (tier ``vectorized``) rate through their one
        vectorized ``detailed`` hook: ``family_rates`` equals the miss
        share of the predictions ``family_detailed`` returns, and the
        health event names that form at info severity, whether or not a
        compiler exists."""
        trace = _trace("toy")
        kind, lane = kernels.kernel_for_spec(spec)
        assert kernels.PORTED[kind].tier == "vectorized"
        for mode in ("auto", "numpy"):
            with dispatch_as(mode):
                assert kernels.default_engine(kernels.PORTED[kind].tier) == "vectorized"
                (row,) = kernels.family_detailed(kind, [spec], [lane], trace)
                misses = np.count_nonzero(row.result.predictions != trace.outcomes)
                health.clear()
                rates = kernels.family_rates(kind, [spec], [lane], trace)
            assert rates == [misses / len(trace)], mode
            (event,) = health.events(component=f"{kind}-kernel")
            assert event.actual == event.expected == "vectorized", mode
            assert event.severity == "info" and event.reason == "", mode

    def test_auto_without_compiler_degrades_with_reason(self):
        spec = "gshare:index=6,hist=6"
        kind, lane = kernels.kernel_for_spec(spec)
        baseline = kernels.family_rates(kind, [spec], [lane], _trace("toy"))
        health.clear()
        with faults.deny_compiler():
            denied = kernels.family_rates(kind, [spec], [lane], _trace("toy"))
            (event,) = health.events(component="gshare-kernel")
            assert event.expected == "c"
            assert event.actual == "numpy"
            assert event.severity == "degraded"
            assert "REPRO_NO_CC" in event.reason
        assert denied == baseline

    @pytest.mark.skipif(not _cstep.available(), reason="no C compiler")
    def test_auto_with_compiler_runs_compiled(self):
        spec = "yags:choice=6,cache=5"
        kind, lane = kernels.kernel_for_spec(spec)
        kernels.family_rates(kind, [spec], [lane], _trace("toy"))
        (event,) = health.events(component="yags-kernel")
        assert event.actual == "c"
        assert event.severity == "info"

    def test_bimode_kernel_inherits_registry_pin(self):
        """Bi-mode dispatches like every cloop scheme: with the compiler
        vetoed it runs its scalar reference (health-reported), with one
        its fused family loop — bit-identical either way."""
        spec = "bimode:dir=6,hist=6,choice=5"
        kind, lane = kernels.kernel_for_spec(spec)
        with faults.deny_compiler():
            rates = kernels.family_rates(kind, [spec], [lane], _trace("toy"))
        (event,) = health.events(component="bimode-kernel")
        assert event.actual == "scalar"
        assert event.severity == "degraded"
        assert "no numpy kernel" in event.reason
        assert rates == [_scalar_rate(spec, "toy")]
        if _cstep.available():
            health.clear()
            assert kernels.family_rates(kind, [spec], [lane], _trace("toy")) == rates
            (event,) = health.events(component="bimode-kernel")
            assert event.actual == "c"

    def test_registry_numpy_pin_is_end_to_end_identical(self, monkeypatch):
        """The whole ALL_SPECS grid lands on the same numbers with the
        compiler vetoed (``REPRO_NO_CC=1``: gshare's numpy rates, and
        every other scheme's scalar reference) as under the default
        dispatch."""
        from repro.sim.fused import family_rates as fused_rates

        def grid():
            out = {}
            for family in plan_families(ALL_SPECS):
                out.update(fused_rates(family, _trace("toy")))
            return out

        monkeypatch.delenv("REPRO_NO_CC", raising=False)
        baseline = grid()
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert grid() == baseline


class TestDifferentialFuzz:
    """Hypothesis differential replay: random traces through every
    engine each ported spec qualifies for (scalar step loop, batch
    simulate, oracle, each lane engine) via ``diff_spec``."""

    @given(
        spec=st.sampled_from(PORTED_GRID),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_engines_agree_on_random_traces(self, spec, data):
        n = data.draw(st.integers(min_value=0, max_value=120), label="length")
        pcs = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**20 - 1),
                min_size=n,
                max_size=n,
            ),
            label="pcs",
        )
        outcomes = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="outcomes"
        )
        from tests.conftest import make_trace

        report = diff_spec(spec, make_trace(pcs, outcomes, name="fuzz"))
        assert report.agree, report.summary()


class TestKillDrillPortedFamily:
    """Mid-sweep kill drill on newly-ported families: a hard worker
    kill must not change any ported-scheme cell or lose the sweep."""

    SPECS = [
        "tournament:index=6,meta=6",
        "tournament:index=7,meta=7",
        "agree:index=7,hist=7",
        "yags:choice=6,cache=5,hist=3,tag=4",
    ]

    def test_hard_killed_worker_still_lands_on_serial_answer(
        self, monkeypatch, tmp_path
    ):
        from repro.sim.parallel import TaskPolicy
        from repro.sim.runner import evaluate_matrix
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import get_profile

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        traces = {
            name: generate_trace(get_profile(name), length=4_000, seed=7)
            for name in ("gcc", "xlisp")
        }
        serial = evaluate_matrix(self.SPECS, traces, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        with faults.inject("worker:exit:bench=gcc"):
            result = evaluate_matrix(
                self.SPECS,
                traces,
                jobs=2,
                policy=TaskPolicy(retries=2, backoff=0.0),
            )
        assert result == serial
        assert result.failures == []


class TestKillDrillSecondWave(TestKillDrillPortedFamily):
    """The perceptron/biasfilter/static drill: same hard worker kill,
    on the second-wave families — journal resume must be bit-identical
    (sequential C-loop state never leaks across the retry boundary)."""

    SPECS = [
        "perceptron:index=5,hist=8",
        "perceptron:index=6,hist=6,w=4",
        "biasfilter:table=6,run=2,sub_index=7,sub_hist=5",
        "btfnt",
    ]
