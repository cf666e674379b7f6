"""Property-based tests (hypothesis) on core data structures and
predictor invariants, plus differential fuzzing of every registered
predictor against the dict-based oracle (:mod:`repro.verify`)."""

import dataclasses
import json
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.counters import CounterTable
from repro.core.history import GlobalHistoryRegister, global_history_stream
from repro.core.indexing import gshare_index, mask
from repro.core.interfaces import SimulationResult
from repro.core.registry import available_schemes, make_predictor, parse_spec
from repro.sim.engine import run, run_steps
from repro.sim.runner import evaluate_specs
from repro.traces.record import BranchTrace
from repro.verify import diff_spec
from repro.verify.oracle import oracle_rate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile
from tests.conftest import ALL_SPECS, FUZZ_BUDGET, dispatch_as, make_toy_trace
from tests.test_golden import GOLDEN_SPECS

outcome_lists = st.lists(st.booleans(), min_size=0, max_size=300)


def saturating_step(state: int, taken: bool, max_state: int = 3) -> int:
    """One up-down counter update, written out independently of
    :class:`CounterTable`."""
    return min(state + 1, max_state) if taken else max(state - 1, 0)


class TestCounterProperties:
    @given(outcomes=outcome_lists, bits=st.integers(1, 4), init=st.integers(0, 15))
    def test_state_always_in_range(self, outcomes, bits, init):
        c = CounterTable(0, bits=bits, init=init % (1 << bits))
        for taken in outcomes:
            c.update(0, taken)
            assert 0 <= c.states[0] <= (1 << bits) - 1

    @given(outcomes=outcome_lists)
    def test_monotone_training_saturates(self, outcomes):
        """After >=3 consecutive identical outcomes the prediction must
        match that outcome (2-bit counter saturation)."""
        c = CounterTable(0)
        for taken in outcomes:
            c.update(0, taken)
        for _ in range(3):
            c.update(0, True)
        assert c.predict(0) is True

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 15), st.booleans()), min_size=0, max_size=200
        )
    )
    def test_table_matches_independent_counters(self, updates):
        table = CounterTable(4)
        reference = [2] * 16
        for index, taken in updates:
            assert table.predict_and_update(index, taken) == (reference[index] >= 2)
            reference[index] = saturating_step(reference[index], taken)
        assert table.states == reference


class TestHistoryProperties:
    @given(outcomes=outcome_lists, bits=st.integers(0, 20))
    def test_stream_matches_register(self, outcomes, bits):
        stream = global_history_stream(np.array(outcomes, dtype=bool), bits)
        ghr = GlobalHistoryRegister(bits)
        for t, taken in enumerate(outcomes):
            assert stream[t] == ghr.value
            ghr.push(taken)

    @given(outcomes=outcome_lists, bits=st.integers(0, 16))
    def test_register_value_bounded(self, outcomes, bits):
        ghr = GlobalHistoryRegister(bits)
        for taken in outcomes:
            ghr.push(taken)
            assert 0 <= ghr.value <= mask(bits)


class TestIndexProperties:
    @given(
        pc=st.integers(0, 1 << 30),
        hist=st.integers(0, 1 << 30),
        index_bits=st.integers(0, 20),
        extra=st.integers(0, 20),
    )
    def test_gshare_index_in_table_range(self, pc, hist, index_bits, extra):
        history_bits = max(0, index_bits - extra)
        index = gshare_index(pc, hist, index_bits, history_bits)
        assert 0 <= index < (1 << index_bits) or index_bits == 0 and index == 0

    @given(pc=st.integers(0, 1 << 20), index_bits=st.integers(1, 16))
    def test_gshare_index_is_history_bijective(self, pc, index_bits):
        """For a fixed pc, distinct full-width histories map to distinct
        indices (xor with a constant is a bijection)."""
        indices = {
            gshare_index(pc, h, index_bits, index_bits)
            for h in range(min(1 << index_bits, 256))
        }
        assert len(indices) == min(1 << index_bits, 256)


def traces(min_size=1, max_size=120):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_size, max_size))
        pcs = draw(
            st.lists(st.integers(0, 63), min_size=n, max_size=n)
        )
        outcomes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return BranchTrace(
            pcs=np.array(pcs), outcomes=np.array(outcomes), name="hyp"
        )

    return build()


PROPERTY_SPECS = [
    "gshare:index=6,hist=6",
    "gshare:index=6,hist=2",
    "bimode:dir=5,hist=5,choice=5",
    "bimodal:index=5",
    "pag:hist=4,bht=4",
    "agree:index=6",
    "gskew:bank=5",
    "yags:choice=6,cache=4",
]


class TestPredictorProperties:
    @given(trace=traces())
    @settings(max_examples=25, deadline=None)
    def test_batch_step_equivalence_on_arbitrary_traces(self, trace):
        for spec in PROPERTY_SPECS:
            batch = run(make_predictor(spec), trace).predictions
            steps = run_steps(make_predictor(spec), trace).predictions
            assert np.array_equal(batch, steps), spec

    @given(trace=traces())
    @settings(max_examples=25, deadline=None)
    def test_constant_outcome_traces_converge(self, trace):
        """On an all-taken trace every adaptive predictor must stop
        mispredicting after the counters saturate (<= 2 misses/branch)."""
        constant = BranchTrace(
            pcs=trace.pcs, outcomes=np.ones(len(trace), dtype=bool), name="c"
        )
        for spec in ("gshare:index=6,hist=0", "bimodal:index=6"):
            result = run(make_predictor(spec), constant)
            num_static = constant.num_static
            assert result.num_mispredictions <= 2 * num_static, spec

    @given(trace=traces())
    @settings(max_examples=20, deadline=None)
    def test_misprediction_rate_bounds(self, trace):
        for spec in ("bimode:dir=5,hist=5,choice=5", "gskew:bank=5"):
            rate = run(make_predictor(spec), trace).misprediction_rate
            assert 0.0 <= rate <= 1.0


# One small configuration per registered scheme; the coverage test
# below fails when a new scheme registers without a differential entry.
DIFFERENTIAL_SPECS = [
    "bimode:dir=5,hist=3,choice=4",
    "bimode:dir=4,hist=4,choice=3,full_update=1,choice_hist=1",
    "gshare:index=6,hist=4",
    "bimodal:index=5",
    "gag:hist=5",
    "gas:hist=4,select=2",
    "gap:hist=4,addr=2",
    "gselect:hist=3,addr=3",
    "pag:hist=4,bht=4",
    "pas:hist=3,select=2,bht=4",
    "pap:hist=3,addr=2,bht=4",
    "perceptron:index=4,hist=6",
    "agree:index=6,hist=4,bias=6",
    "gskew:bank=5,hist=5",
    "gskew:bank=4,hist=4,update=total",
    "yags:choice=6,cache=4,hist=4,tag=4",
    "tournament:index=6,meta=5",
    "trimode:dir=5,hist=3,choice=4",
    "biasfilter:table=5,run=2,sub_index=6,sub_hist=4",
    "biasfilter:table=4,run=2,sub=bimodal,sub_index=5",
    "always-taken",
    "always-not-taken",
    "btfnt",
]


def _fuzz_tier(scheme: str) -> str:
    """Light tier for the stateless schemes (the statics carry a direct
    ``rates`` hook), heavy for everything with a real automaton.  The
    SCALAR_ONLY tier that used to define "light" is retired and empty."""
    from repro.sim import kernels

    entry = kernels.PORTED.get(scheme)
    return "light" if entry is not None and entry.rates is not None else "heavy"


LIGHT_DIFFERENTIAL_SPECS = [
    spec for spec in DIFFERENTIAL_SPECS if _fuzz_tier(parse_spec(spec)[0]) == "light"
]
HEAVY_DIFFERENTIAL_SPECS = [
    spec for spec in DIFFERENTIAL_SPECS if _fuzz_tier(parse_spec(spec)[0]) == "heavy"
]


class TestDifferentialFuzzing:
    """Random traces through oracle == step loop == batch simulate ==
    batched kernels (where the spec qualifies for one), for every
    registered predictor.  A failure message carries the first
    diverging branch index; hypothesis shrinks the trace around it."""

    def test_every_registered_scheme_is_fuzzed(self):
        fuzzed = {parse_spec(spec)[0] for spec in DIFFERENTIAL_SPECS}
        assert fuzzed == set(available_schemes())

    def test_every_scheme_lands_in_exactly_one_budget_tier(self):
        light = {parse_spec(s)[0] for s in LIGHT_DIFFERENTIAL_SPECS}
        heavy = {parse_spec(s)[0] for s in HEAVY_DIFFERENTIAL_SPECS}
        assert not light & heavy
        assert light | heavy == set(available_schemes())

    @given(trace=traces())
    @settings(deadline=None, **FUZZ_BUDGET["light"])
    def test_light_tier_engines_agree_on_arbitrary_traces(self, trace):
        for spec in LIGHT_DIFFERENTIAL_SPECS:
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()

    @given(trace=traces())
    @settings(deadline=None, **FUZZ_BUDGET["heavy"])
    def test_kernel_ported_engines_agree_on_arbitrary_traces(self, trace):
        for spec in HEAVY_DIFFERENTIAL_SPECS:
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()

    @given(trace=traces(min_size=0, max_size=40))
    @settings(max_examples=10, deadline=None)
    def test_agreement_holds_on_tiny_and_empty_traces(self, trace):
        for spec in ("bimode:dir=3,hist=2,choice=2", "yags:choice=4,cache=3"):
            report = diff_spec(spec, trace)
            assert report.agree, report.summary()


#: Every registered scheme's spec knobs: ``None`` marks an integer
#: knob, a tuple the spellings drawn for an enumerated one (an unknown
#: spelling included).
SPEC_KNOBS = {
    "gshare": {"index": None, "hist": None},
    "bimode": {
        "dir": None,
        "hist": None,
        "choice": None,
        "full_update": None,
        "choice_hist": None,
    },
    "bimodal": {"index": None, "bits": None},
    "gag": {"hist": None},
    "gas": {"hist": None, "select": None},
    "gap": {"hist": None, "addr": None},
    "gselect": {"hist": None, "addr": None},
    "pag": {"hist": None, "bht": None},
    "pas": {"hist": None, "select": None, "bht": None},
    "pap": {"hist": None, "addr": None, "bht": None},
    "perceptron": {"index": None, "hist": None, "w": None},
    "agree": {"index": None, "hist": None, "bias": None},
    "gskew": {"bank": None, "hist": None, "update": ("enhanced", "total", "sideways")},
    "yags": {"choice": None, "cache": None, "hist": None, "tag": None},
    "tournament": {"index": None, "meta": None},
    "trimode": {"dir": None, "hist": None, "choice": None},
    "biasfilter": {
        "table": None,
        "run": None,
        "sub": ("gshare", "bimodal", "bimode", "perceptron"),
        "sub_index": None,
        "sub_hist": None,
    },
    "always-taken": {},
    "always-not-taken": {},
    "btfnt": {},
}

#: Integer knob values: small geometries, plus values past a
#: constructor's or a kernel's limits (negative; wider than a counter
#: table, an int32 C field or the 62-bit history register).
KNOB_VALUES = st.one_of(st.integers(0, 8), st.sampled_from([-1, 25, 31, 63]))


@st.composite
def spec_strings(draw):
    """A spec of one registered scheme: each knob present three times in
    four, and now and then a knob no scheme takes."""
    scheme = draw(st.sampled_from(sorted(SPEC_KNOBS)))
    knobs = []
    for key, spellings in SPEC_KNOBS[scheme].items():
        if draw(st.integers(0, 3)):
            value = draw(KNOB_VALUES if spellings is None else st.sampled_from(spellings))
            knobs.append(f"{key}={value}")
    if draw(st.integers(0, 9)) == 0:
        knobs.append("bogus=1")
    return f"{scheme}:{','.join(knobs)}" if knobs else scheme


class TestSpecAgreement:
    """A sweep reads a spec exactly as ``make_predictor`` does: the
    kernel planner refuses no spec the constructor accepts and runs
    none it refuses (``gap:...,addr=0`` once ran a lane), and the rate
    it returns is the oracle's."""

    def test_every_registered_scheme_is_drawn(self):
        assert set(SPEC_KNOBS) == set(available_schemes())

    @given(spec=spec_strings(), trace=traces())
    @example(spec="gap:hist=4,addr=0", trace=make_toy_trace(length=200))
    @settings(deadline=None)
    def test_sweeps_refuse_exactly_what_the_constructor_refuses(self, spec, trace):
        try:
            make_predictor(spec)
        except ValueError:
            with pytest.raises(ValueError):
                evaluate_specs([spec], trace)
            return
        assert evaluate_specs([spec], trace)[spec] == oracle_rate(spec, trace), spec


class TestSimulationResultProperties:
    @given(outcomes=st.lists(st.booleans(), min_size=0, max_size=100))
    def test_perfect_predictions_have_zero_rate(self, outcomes):
        arr = np.array(outcomes, dtype=bool)
        r = SimulationResult("p", "t", arr.copy(), arr)
        assert r.misprediction_rate == 0.0

    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=100))
    def test_inverted_predictions_have_rate_one(self, outcomes):
        arr = np.array(outcomes, dtype=bool)
        r = SimulationResult("p", "t", ~arr, arr)
        assert r.misprediction_rate == 1.0


class TestWarmStartProperties:
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=150),
        bits=st.integers(1, 12),
        initial=st.integers(0, (1 << 12) - 1),
    )
    def test_history_stream_with_initial_matches_register(
        self, outcomes, bits, initial
    ):
        initial &= (1 << bits) - 1
        stream = global_history_stream(
            np.array(outcomes, dtype=bool), bits, initial=initial
        )
        ghr = GlobalHistoryRegister(bits, value=initial)
        for t, taken in enumerate(outcomes):
            assert stream[t] == ghr.value
            ghr.push(taken)

    @given(trace=traces(min_size=2), split=st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_split_simulation_equals_full(self, trace, split):
        """For every spec of ``ALL_SPECS``, by default and with the
        compiler vetoed: the second chunk run on without a reset
        continues one run's predictions, and after a reset each chunk
        mispredicts exactly its power-on rate through the sweep dispatch
        (``fused.family_rates``)."""
        from repro.sim.fused import family_rates, plan_families

        point = max(1, min(len(trace) - 1, int(len(trace) * split)))
        chunks = (trace[:point], trace[point:])
        for context in (nullcontext, faults.deny_compiler):
            with context():
                power_on = [{}, {}]
                for family in plan_families(ALL_SPECS):
                    for rates, chunk in zip(power_on, chunks):
                        rates.update(family_rates(family, chunk))
                for spec in ALL_SPECS:
                    full = run(make_predictor(spec), trace).predictions
                    p = make_predictor(spec)
                    a = run(p, chunks[0]).predictions
                    b = run(p, chunks[1], reset=False).predictions
                    assert np.array_equal(np.concatenate([a, b]), full), spec
                    b = run(p, chunks[1]).predictions
                    for preds, chunk, rates in zip((a, b), chunks, power_on):
                        misses = np.count_nonzero(preds != chunk.outcomes)
                        assert misses / len(chunk) == rates[spec], (spec, context)


def _summary_of(detailed, analysis) -> str:
    """The JSON text of ``analysis``'s Section-4 summary."""
    from repro.analysis.aliasing import aliasing_stats, sharing_decomposition
    from repro.analysis.bias import counter_bias_table
    from repro.analysis.interference import count_class_changes
    from repro.analysis.summary import build_summary

    summary = build_summary(
        detailed,
        analysis,
        table=counter_bias_table(analysis),
        alias=aliasing_stats(analysis),
        sharing=sharing_decomposition(analysis),
        changes=count_class_changes(detailed, analysis),
        include_bias_table=True,
    )
    return json.dumps(summary, sort_keys=True)


class TestSummaryMetamorphic:
    """Every Section-4 aggregate is a count or an exact integer sum over
    streams or counters, so renumbering the streams (and every access's
    stream id with them) leaves the summary byte-identical, on the
    compiled class-change pass and the no-compiler reference alike."""

    @given(
        trace=traces(min_size=2),
        spec=st.sampled_from(
            ["gshare:index=4,hist=3", "bimode:dir=3,hist=3,choice=3", "bimodal:index=3"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_renumbering_leaves_summary_unchanged(self, trace, spec, seed):
        from repro.analysis.bias import analyze_substreams
        from repro.sim import _cstep

        detailed = make_predictor(spec).simulate_detailed(trace)
        analysis = analyze_substreams(detailed)
        perm = np.random.default_rng(seed).permutation(analysis.num_streams)
        new_id = np.empty_like(perm)
        new_id[perm] = np.arange(len(perm))
        renumbered = dataclasses.replace(
            analysis,
            stream_counter=analysis.stream_counter[perm],
            stream_pc=analysis.stream_pc[perm],
            stream_total=analysis.stream_total[perm],
            stream_taken=analysis.stream_taken[perm],
            stream_mispredicted=analysis.stream_mispredicted[perm],
            stream_class=analysis.stream_class[perm],
            access_stream=new_id[analysis.access_stream].astype(np.int32),
        )
        assert np.array_equal(
            renumbered.stream_counter[renumbered.access_stream], detailed.counter_ids
        )
        want = _summary_of(detailed, analysis)
        assert _summary_of(detailed, renumbered) == want
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_cstep, "available", lambda: False)
            assert _summary_of(detailed, renumbered) == want


def _through_dispatch(specs, trace):
    """``{spec: (rate, summary JSON)}`` of ``specs`` on ``trace``
    through the one dispatch path a Section-4 sweep takes: the planner's
    families, their rates and their detailed rows, each row summarized
    under the trace's shared pc codes."""
    from repro.analysis.bias import pc_code_stream
    from repro.analysis.summary import summarize_detailed
    from repro.sim.fused import family_detailed, family_rates, plan_families

    pc_codes = pc_code_stream(trace.pcs)
    out = {}
    for family in plan_families(specs):
        rates = family_rates(family, trace)
        for spec, row in family_detailed(family, trace, pc_codes=pc_codes).items():
            summary = summarize_detailed(row, include_bias_table=True, pc_codes=pc_codes)
            out[spec] = (rates[spec], json.dumps(summary, sort_keys=True))
    return out


def _shifted(trace: BranchTrace, c: int) -> BranchTrace:
    """``trace`` with ``c * 2**40`` added to every PC."""
    return BranchTrace(
        pcs=trace.pcs + np.int64(c) * 2**40, outcomes=trace.outcomes, name=trace.name
    )


@st.composite
def wide_pc_traces(draw):
    """A trace over up to 16 sites of one block of code anywhere below
    ``2**40`` (a base plus offsets below 16, so the sites share their
    high bits and small tables alias them), each site with its own
    taken bias in eighths; the branch order is a seeded random draw."""
    base = draw(st.integers(0, 2**40 - 16))
    offsets = draw(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
    sites = base + np.array(offsets, dtype=np.int64)
    bias = np.array(draw(st.lists(st.integers(0, 8), min_size=len(sites), max_size=len(sites))))
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    which = rng.integers(0, len(sites), n)
    return BranchTrace(pcs=sites[which], outcomes=rng.random(n) < bias[which] / 8, name="wide")


class TestMetamorphic:
    """Relations between runs that are not another implementation of a
    scheme, each checked through the one dispatch path, as this process
    runs it (``auto``) and with the compiler vetoed (``numpy``).

    * Every registered scheme indexes, hashes and tags with PC bits
      below 40, so adding ``c * 2**40`` to every PC (PCs staying below
      ``2**40`` before the shift) leaves every rate and every Section-4
      summary byte-identical.
    * Two traces whose PCs differ in the low index bits use disjoint
      bimodal counters, so any interleaving of them mispredicts exactly
      the sum of their misses, and no counter is shared across them.
    """

    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    @pytest.mark.parametrize("bench, c", [("gcc", 1), ("go", 2**22 - 1)])
    def test_high_pc_bits_change_no_rate_or_summary(self, bench, c, mode):
        trace = generate_trace(get_profile(bench), length=3000, seed=0)
        assert int(trace.pcs.max()) < 2**40
        with dispatch_as(mode):
            want = _through_dispatch(GOLDEN_SPECS, trace)
            assert _through_dispatch(GOLDEN_SPECS, _shifted(trace, c)) == want

    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    @given(
        trace=wide_pc_traces(),
        c=st.integers(1, 2**22 - 2),
        specs=st.lists(st.sampled_from(GOLDEN_SPECS), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_high_pc_bits_change_nothing_on_wide_pcs(self, mode, trace, c, specs):
        """A few golden specs per example (the gcc/go variant above
        replays all of them), so a failing example shrinks in seconds.
        The shift by ``c`` and the shift by its 22-bit complement
        between them set every PC bit from 40 to 61."""
        with dispatch_as(mode):
            want = _through_dispatch(specs, trace)
            for shift in (c, (2**22 - 1) ^ c):
                assert _through_dispatch(specs, _shifted(trace, shift)) == want, shift

    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    @given(
        words=st.lists(st.integers(0, 2**9 - 1), min_size=2, max_size=200),
        split=st.data(),
        distinct=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_disjoint_interleaving_adds_bimodal_misses(self, mode, words, split, distinct):
        """Trace A's PCs have index bit 0 clear and trace B's set, so
        under ``bimodal:index=8`` each counter sees one trace's accesses
        in that trace's order however the two interleave.  Misses add
        up, so do aliased counters (none when each trace's own sites are
        distinct in the index bits)."""
        from repro.analysis.aliasing import aliasing_stats
        from repro.analysis.bias import analyze_substreams
        from repro.sim.fused import family_detailed, family_rates, plan_families

        spec = "bimodal:index=8"
        if distinct:
            words = list(dict.fromkeys(w & 0x7F for w in words))
        rng = np.random.default_rng(split.draw(st.integers(0, 2**32 - 1)))
        k = split.draw(st.integers(1, len(words) - 1)) if len(words) > 1 else 1
        a_sites = np.array(words[:k], dtype=np.int64) << 1  # index bit 0 clear
        b_sites = (np.array(words[k:] or [0], dtype=np.int64) << 1) | 1  # set
        parts = []
        for sites in (a_sites, b_sites):
            n = int(rng.integers(1, 300))
            which = rng.integers(0, len(sites), n)
            taken = rng.random(n) < rng.random(len(sites))[which]
            parts.append(BranchTrace(pcs=sites[which], outcomes=taken, name="part"))
        a, b = parts
        order = rng.permutation(len(a) + len(b)) < len(a)  # True: next from A
        pcs = np.empty(len(order), dtype=np.int64)
        taken = np.empty(len(order), dtype=bool)
        pcs[order], pcs[~order] = a.pcs, b.pcs
        taken[order], taken[~order] = a.outcomes, b.outcomes
        mixed = BranchTrace(pcs=pcs, outcomes=taken, name="mixed")

        def run_one(trace):
            (family,) = plan_families([spec])
            rate = family_rates(family, trace)[spec]
            row = family_detailed(family, trace)[spec]
            misses = row.result.num_mispredictions
            assert rate == misses / len(trace)
            return misses, aliasing_stats(analyze_substreams(row)).aliased_counters

        with dispatch_as(mode):
            (miss_a, alias_a), (miss_b, alias_b) = run_one(a), run_one(b)
            miss_mixed, alias_mixed = run_one(mixed)
        assert miss_mixed == miss_a + miss_b
        assert alias_mixed == alias_a + alias_b
        if distinct:
            assert alias_mixed == 0
