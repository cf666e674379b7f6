"""Fused sweep planner and family evaluation (:mod:`repro.sim.fused`).

Covers the equivalence contract end to end: the planner's family
grouping and dedupe, ``REPRO_KERNEL`` dispatch (including the compiler-
denied fallbacks, all health-reported), bit-identity of the fused
passes against the per-cell scalar engine *and* the differential
oracle over Figure-2/3/4 spec grids, hypothesis fuzzing of random
grids, the parallel planner's (spec, trace) dedupe with fan-out, and
per-cell journal resume under per-family tasks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, health
from repro.core.registry import make_predictor
from repro.sim import _cstep
from repro.sim.engine import run
from repro.sim.fused import SpecFamily, family_rates, plan_families
from repro.sim.journal import SweepJournal
from repro.sim.runner import evaluate_specs, trace_key
from repro.traces.record import BranchTrace
from repro.verify.oracle import oracle_rate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile
from tests.conftest import figure_grid


@pytest.fixture(autouse=True)
def clean_health():
    health.clear()
    yield
    health.clear()


class TestPlanner:
    def test_partitions_by_kind_in_fixed_order(self):
        scalar_spec = "biasfilter:table=5,run=2,sub=bimode,sub_index=5,sub_hist=3"
        families = plan_families(
            [
                "bimode:dir=5,hist=5,choice=5",
                "always-taken",
                scalar_spec,
                "gshare:index=6,hist=3",
                "gshare:index=6,hist=6",
                "bimodal:index=5",
            ]
        )
        assert [f.kind for f in families] == [
            "gshare",
            "bimode",
            "bimodal",
            "always-taken",
            "scalar",
        ]
        by_kind = {f.kind: f for f in families}
        assert by_kind["gshare"].specs == (
            "gshare:index=6,hist=3",
            "gshare:index=6,hist=6",
        )
        assert by_kind["bimode"].specs == ("bimode:dir=5,hist=5,choice=5",)
        assert by_kind["bimodal"].specs == ("bimodal:index=5",)
        assert by_kind["bimodal"].lanes[0] is not None
        assert by_kind["always-taken"].specs == ("always-taken",)
        assert by_kind["always-taken"].lanes[0] is not None
        assert by_kind["scalar"].specs == (scalar_spec,)
        assert by_kind["scalar"].lanes == (None,)

    def test_empty_families_are_omitted(self):
        (only,) = plan_families(["gshare:index=5,hist=2"])
        assert only.kind == "gshare"
        assert len(only) == 1

    def test_duplicate_specs_collapse_to_one_lane(self):
        (family,) = plan_families(
            ["gshare:index=6,hist=4", "gshare:index=6,hist=4"]
        )
        assert family.specs == ("gshare:index=6,hist=4",)
        assert len(family.lanes) == 1

    def test_bimode_ablation_variants_stay_in_one_family(self):
        (family,) = plan_families(
            [
                "bimode:dir=5,hist=5,choice=5",
                "bimode:dir=5,hist=5,choice=5,full_update=1",
                "bimode:dir=5,hist=5,choice=5,choice_hist=1",
            ]
        )
        assert family.kind == "bimode"
        assert len(family) == 3

    def test_spec_family_validates(self):
        with pytest.raises(ValueError):
            SpecFamily(kind="exotic", specs=("a",), lanes=(None,))
        with pytest.raises(ValueError):
            SpecFamily(kind="scalar", specs=("a", "b"), lanes=(None,))


class TestDispatch:
    def test_auto_without_compiler_degrades_with_event(
        self, small_workload, monkeypatch
    ):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        (family,) = plan_families(["gshare:index=6,hist=4"])
        with faults.deny_compiler():
            health.clear()
            family_rates(family, small_workload)
            (event,) = health.events(component="gshare-kernel")
            assert event.expected == "c"
            assert event.actual == "numpy"
            assert event.severity == "degraded"

    def test_scalar_family_reports_degradation(self, small_workload):
        health.clear()
        scalar_spec = "biasfilter:table=5,run=2,sub=bimode,sub_index=5,sub_hist=3"
        rates = evaluate_specs([scalar_spec, "gshare:index=6,hist=6"], small_workload)
        assert set(rates) == {scalar_spec, "gshare:index=6,hist=6"}
        (event,) = health.events(component="sweep-planner")
        assert event.actual == "scalar"
        assert event.severity == "degraded"
        assert "biasfilter" in event.reason


class TestFamilyDetailed:
    """The per-family Section-4 path (what ``detailed_matrix`` workers
    run): bit-identity against the per-predictor scalar loop, scalar
    family degradations, and the ``REPRO_KERNEL`` pin at family
    granularity."""

    MIXED_GRID = [
        "gshare:index=7,hist=5",
        "bimode:dir=6,hist=6,choice=5",
        "agree:index=6,hist=6",
        "perceptron:index=5,hist=6",
        "btfnt",
    ]

    @pytest.fixture(scope="class")
    def trace(self):
        from tests.conftest import make_toy_trace

        return make_toy_trace(length=1200, seed=29)

    def test_families_match_scalar_loop(self, trace):
        from repro.sim.fused import family_detailed

        rows = {}
        for family in plan_families(self.MIXED_GRID):
            rows.update(family_detailed(family, trace))
        assert set(rows) == set(self.MIXED_GRID)
        for spec, got in rows.items():
            detailed = make_predictor(spec).simulate_detailed(trace)
            assert np.array_equal(got.result.predictions, detailed.result.predictions), spec
            assert np.array_equal(got.counter_ids, detailed.counter_ids), spec
            assert got.num_counters == detailed.num_counters, spec

    def test_scalar_family_reports_detailed_degradation(self, trace):
        from repro.sim.fused import family_detailed

        scalar_spec = "biasfilter:table=5,run=2,sub=bimode,sub_index=5,sub_hist=3"
        (family,) = plan_families([scalar_spec])
        assert family.kind == "scalar"
        health.clear()
        rows = family_detailed(family, trace)
        detailed = make_predictor(scalar_spec).simulate_detailed(trace)
        got = rows[scalar_spec]
        assert np.array_equal(got.result.predictions, detailed.result.predictions)
        assert np.array_equal(got.counter_ids, detailed.counter_ids)
        assert got.num_counters == detailed.num_counters
        (event,) = [
            e
            for e in health.events(component="detailed-kernel")
            if e.actual == "scalar"
        ]
        assert event.severity == "degraded"

    def test_c_pin_refuses_sequential_scheme_without_compiler(
        self, trace, monkeypatch
    ):
        """A cloop-tier family (no numpy kernel) under the c pin must
        refuse when the compiler is denied rather than quietly run the
        scalar loop."""
        from repro.sim.fused import family_detailed

        (family,) = plan_families(["perceptron:index=5,hist=6"])
        monkeypatch.setenv("REPRO_KERNEL", "c")
        with faults.deny_compiler():
            with pytest.raises(RuntimeError, match="REPRO_KERNEL=c"):
                family_detailed(family, trace)

    def test_scalar_pin_is_bit_identical(self, trace, monkeypatch):
        from repro.sim.fused import family_detailed

        def grid():
            rows = {}
            for family in plan_families(self.MIXED_GRID):
                rows.update(family_detailed(family, trace))
            return rows

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        baseline = grid()
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        pinned = grid()
        for spec in self.MIXED_GRID:
            base, pin = baseline[spec], pinned[spec]
            assert np.array_equal(base.result.predictions, pin.result.predictions), spec
            assert np.array_equal(base.counter_ids, pin.counter_ids), spec
            assert base.num_counters == pin.num_counters, spec


class TestFigureGridEquivalence:
    """Fused == per-cell scalar engine == differential oracle, for the
    Figure-2/3/4 grid shape, across every dispatch mode."""

    @pytest.fixture(scope="class")
    def grid(self):
        return figure_grid()

    @pytest.fixture(scope="class")
    def reference(self, grid, small_workload):
        return {
            spec: run(make_predictor(spec), small_workload).misprediction_rate
            for spec in grid
        }

    def test_reference_matches_oracle(self, grid, reference, small_workload):
        for spec in grid:
            assert reference[spec] == oracle_rate(spec, small_workload), spec

    @pytest.mark.parametrize("mode", ["auto", "c", "numpy", "scalar"])
    def test_modes_are_bit_identical(
        self, grid, reference, small_workload, monkeypatch, mode
    ):
        """Every engine: the three ``REPRO_KERNEL`` pins, and ``numpy``
        — the lanes a vetoed compiler leaves (``REPRO_NO_CC=1``)."""
        if mode == "c" and not _cstep.available():
            pytest.skip("no C compiler available")
        if mode == "numpy":
            monkeypatch.delenv("REPRO_KERNEL", raising=False)
            monkeypatch.setenv("REPRO_NO_CC", "1")
        else:
            monkeypatch.setenv("REPRO_KERNEL", mode)
        assert evaluate_specs(grid, small_workload) == reference

    @pytest.mark.parametrize("mode", ["auto", "numpy"])
    def test_compiler_denied_is_bit_identical(
        self, grid, reference, small_workload, monkeypatch, mode
    ):
        """With the compiler denied, the sweep dispatch and the registry's
        explicit ``mode="numpy"`` engine both land on the reference."""
        from repro.sim import kernels

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with faults.deny_compiler():
            if mode == "auto":
                assert evaluate_specs(grid, small_workload) == reference
                return
            rates = {}
            for family in plan_families(grid):
                rows = kernels.family_rates(
                    family.kind, family.specs, family.lanes, small_workload, mode=mode
                )
                rates.update(zip(family.specs, rows))
            assert rates == reference

    def test_family_rates_directly(self, grid, reference, small_workload):
        for family in plan_families(grid):
            rates = family_rates(family, small_workload)
            assert rates == {spec: reference[spec] for spec in family.specs}


def _traces(min_size=1, max_size=120):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_size, max_size))
        pcs = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
        outcomes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return BranchTrace(
            pcs=np.array(pcs), outcomes=np.array(outcomes), name="hyp"
        )

    return build()


def _gshare_specs():
    return st.builds(
        lambda i, h: f"gshare:index={i},hist={min(h, i)}",
        st.integers(2, 8),
        st.integers(0, 8),
    )


def _bimode_specs():
    return st.builds(
        lambda d, h, c, full, chist: (
            f"bimode:dir={d},hist={min(h, d)},choice={c}"
            + (",full_update=1" if full else "")
            + (",choice_hist=1" if chist else "")
        ),
        st.integers(2, 7),
        st.integers(0, 7),
        st.integers(2, 7),
        st.booleans(),
        st.booleans(),
    )


def _grids():
    return st.lists(
        st.one_of(
            _gshare_specs(),
            _bimode_specs(),
            st.sampled_from(["always-taken", "btfnt", "bimodal:index=5"]),
        ),
        min_size=1,
        max_size=10,
    )


class TestPlannerFuzzing:
    """Random spec grids on random traces: the fused family passes, the
    per-cell scalar engine, and the differential oracle must agree bit
    for bit on every cell, and the planner must cover the grid exactly."""

    @given(grid=_grids(), trace=_traces())
    @settings(max_examples=25, deadline=None)
    def test_fused_equals_percell_equals_oracle(self, grid, trace):
        families = plan_families(grid)
        covered = [spec for family in families for spec in family.specs]
        assert sorted(covered) == sorted(set(grid))

        fused = {}
        for family in families:
            fused.update(family_rates(family, trace))
        for spec in set(grid):
            scalar = run(make_predictor(spec), trace).misprediction_rate
            assert fused[spec] == scalar, spec
            assert fused[spec] == oracle_rate(spec, trace), spec

    @given(grid=_grids(), trace=_traces(min_size=0, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_fused_numpy_fallbacks_agree_on_tiny_traces(self, grid, trace):
        with faults.deny_compiler():
            fused = {}
            for family in plan_families(grid):
                fused.update(family_rates(family, trace))
        for spec in set(grid):
            assert fused[spec] == run(
                make_predictor(spec), trace
            ).misprediction_rate, spec


SPECS = [
    "gshare:index=8,hist=8",
    "gshare:index=8,hist=2",
    "bimode:dir=6,hist=6,choice=6",
]
FAMILIES = 2  # one gshare family + one bi-mode family


@pytest.fixture()
def bench_traces(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return {
        name: generate_trace(get_profile(name), length=6_000, seed=11)
        for name in ("gcc", "xlisp")
    }


class TestParallelDedupe:
    """Satellite: identical (spec, trace) cells are simulated once and
    the rates fanned out to every requesting bench key."""

    def test_shared_trace_simulated_once(self, bench_traces, tmp_path):
        from repro.sim.parallel import TaskPolicy, evaluate_matrix_parallel

        shared = bench_traces["gcc"]
        traces = {"run-a": shared, "run-b": shared, "xlisp": bench_traces["xlisp"]}
        with faults.traced(tmp_path / "trace"):
            result = evaluate_matrix_parallel(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
            )

        counts = faults.trace_counts(tmp_path / "trace", site="evaluate")
        # the shared trace's family tasks ran once, not once per bench key
        assert counts[("evaluate", "gcc")] == FAMILIES
        assert counts[("evaluate", "xlisp")] == FAMILIES
        for spec in SPECS:
            assert result[spec]["run-a"] == result[spec]["run-b"]
            assert result[spec]["run-a"] == run(
                make_predictor(spec), shared
            ).misprediction_rate

    def test_duplicate_specs_do_not_add_work(self, bench_traces, tmp_path):
        from repro.sim.parallel import TaskPolicy, evaluate_matrix_parallel

        with faults.traced(tmp_path / "trace"):
            result = evaluate_matrix_parallel(
                SPECS + SPECS,
                {"gcc": bench_traces["gcc"]},
                jobs=2,
                policy=TaskPolicy(retries=0, backoff=0.0),
            )
        counts = faults.trace_counts(tmp_path / "trace", site="evaluate")
        assert counts[("evaluate", "gcc")] == FAMILIES
        for spec in SPECS:
            assert result[spec]["gcc"] == run(
                make_predictor(spec), bench_traces["gcc"]
            ).misprediction_rate


class TestJournalResumeWithFamilies:
    """Satellite: tasks ship per family, but the journal stays per-cell
    — a partially journalled family resumes cell by cell."""

    def test_journalled_cells_survive_family_tasks(self, bench_traces, tmp_path):
        from repro.sim.parallel import TaskPolicy, evaluate_matrix_parallel

        trace = bench_traces["gcc"]
        tkey = trace_key(trace)
        sentinel = 0.123456789  # provably from the journal, not simulation
        journal = SweepJournal(tmp_path / "fused.jsonl")
        journal.record(tkey, SPECS[0], sentinel)

        result = evaluate_matrix_parallel(
            SPECS,
            {"gcc": trace},
            jobs=2,
            journal=journal,
            policy=TaskPolicy(retries=0, backoff=0.0),
        )
        assert result[SPECS[0]]["gcc"] == sentinel
        for spec in SPECS[1:]:
            assert result[spec]["gcc"] == run(
                make_predictor(spec), trace
            ).misprediction_rate

        # every freshly computed cell was journalled for the next resume
        replay = SweepJournal(journal.path)
        assert replay.completed(tkey) == {
            spec: result[spec]["gcc"] for spec in SPECS
        }

    def test_interrupted_family_sweep_resumes_bit_identically(
        self, bench_traces, tmp_path
    ):
        from repro.sim.parallel import TaskPolicy, evaluate_matrix_parallel

        reference = evaluate_matrix_parallel(
            SPECS, bench_traces, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
        )

        journal = SweepJournal(tmp_path / "resume.jsonl")
        with faults.inject("evaluate:sigint:nth=2"):
            with pytest.raises(KeyboardInterrupt):
                evaluate_matrix_parallel(
                    SPECS,
                    bench_traces,
                    jobs=1,  # serial: the injected SIGINT hits in-process
                    journal=journal,
                    policy=TaskPolicy(retries=0, backoff=0.0),
                )
        assert len(SweepJournal(journal.path)) > 0

        resumed_journal = SweepJournal(journal.path)
        resumed = evaluate_matrix_parallel(
            SPECS,
            bench_traces,
            jobs=2,
            journal=resumed_journal,
            policy=TaskPolicy(retries=0, backoff=0.0),
        )
        assert resumed == reference
        assert resumed_journal.resumed_cells > 0
