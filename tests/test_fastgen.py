"""Differential suite for the vectorized trace-generation fast path.

The contract under test is *bit-identity*: for every registered profile
and multiple (length, seed) points, :func:`repro.workloads.fastgen.fast_run`
must reproduce ``Program.run`` exactly — same pcs, same outcomes, same
metadata-bearing name — on both the compiled passes and their
pure-Python / numpy fallbacks.  Plus the compiled assembly loop against
its numpy form on the same records, malformed records included, and
``generate_trace``'s dispatch: engine selection, health bookkeeping,
and the scalar fallback for programs the fast path refuses.
"""

import numpy as np
import pytest

from repro import faults, health
from repro.workloads import _cgen, fastgen
from repro.workloads.components import BiasedBehavior
from repro.workloads.generator import build_program, generate_trace
from repro.workloads.profiles import ALL_PROFILES, get_profile

#: (length, run seed) differential points — two per profile, matching
#: the ISSUE acceptance bar.  The run seeds correspond to
#: ``generate_trace`` seeds 0 and 3 (run seed = 2 * seed + 1).
POINTS = [(20_000, 1), (50_000, 7)]


@pytest.fixture(autouse=True)
def _clean_health():
    health.clear()
    yield
    health.clear()


_scalar_cache = {}


def scalar_reference(name: str, length: int, run_seed: int):
    key = (name, length, run_seed)
    if key not in _scalar_cache:
        program = build_program(get_profile(name), seed=run_seed)
        _scalar_cache[key] = program.run(length=length, seed=run_seed)
    return _scalar_cache[key]


def assert_bit_identical(fast, reference):
    assert np.array_equal(fast.pcs, reference.pcs)
    assert np.array_equal(fast.outcomes, reference.outcomes)
    assert fast.name == reference.name


class TestDifferential:
    """fast_run == Program.run, every profile, both engines."""

    @pytest.mark.parametrize("length,run_seed", POINTS)
    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_compiled_engine(self, name, length, run_seed):
        program = build_program(get_profile(name), seed=run_seed)
        assert fastgen.supports(program)
        fast = fastgen.fast_run(program, length, seed=run_seed)
        assert_bit_identical(fast, scalar_reference(name, length, run_seed))

    @pytest.mark.parametrize("length,run_seed", POINTS)
    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_python_engine(self, name, length, run_seed):
        program = build_program(get_profile(name), seed=run_seed)
        with faults.deny_compiler():
            assert fastgen.engine_name() == "fastgen-py"
            fast = fastgen.fast_run(program, length, seed=run_seed)
        assert_bit_identical(fast, scalar_reference(name, length, run_seed))

    def test_plan_reuse_is_stable(self):
        # the per-program plan cache must not leak state between runs
        program = build_program(get_profile("gcc"), seed=1)
        first = fastgen.fast_run(program, 20_000, seed=1)
        second = fastgen.fast_run(program, 20_000, seed=1)
        assert_bit_identical(second, first)


needs_cc = pytest.mark.skipif(not _cgen.available(), reason="no C compiler")


def event_records(name: str, length: int, run_seed: int = 1):
    """``(plan, visits, runs)`` of one event pass over a profile."""
    program = build_program(get_profile(name), seed=run_seed)
    plan = fastgen._plan_of(program)
    return (plan, *fastgen._event_pass(plan, program, length, run_seed))


@needs_cc
class TestAssembly:
    """``_cgen.assemble`` == the numpy ``_assemble`` on the same records;
    malformed records raise instead of indexing out of bounds."""

    @staticmethod
    def visit_starts(plan, visits):
        """``(starts, widths, iterations)`` of each visit; ``starts``
        ends with the records' total branch count."""
        its = visits & fastgen._RUN_MAX
        regions = (visits >> fastgen._RUN_BITS) & ((1 << fastgen._REGION_BITS) - 1)
        widths = plan.widths[regions]
        return np.concatenate(([0], np.cumsum(widths * its))), widths, its

    @pytest.mark.parametrize(
        "records,length",
        [(0, 0), (1, 1), (20_000, "mid-iteration"), (20_000, 30_000)],
        ids=["empty", "one", "mid-iteration", "past-the-records"],
    )
    def test_compiled_equals_numpy(self, records, length):
        plan, visits, runs = event_records("gcc", records)
        assert set(np.unique(plan.kind)) == {
            fastgen._K_RUN,
            fastgen._K_PATTERN,
            fastgen._K_CORR,
        }
        starts, widths, its = self.visit_starts(plan, visits)
        if length == "mid-iteration":  # one branch into a visit's second iteration
            v = int(np.flatnonzero((widths >= 2) & (its >= 2))[0])
            length = int(starts[v] + widths[v] + 1)
        pcs, outcomes = _cgen.assemble(plan, visits, runs, length)
        ref_pcs, ref_outcomes = fastgen._assemble(plan, visits, runs, length)
        assert len(pcs) == min(length, starts[-1])
        assert pcs.dtype == ref_pcs.dtype and outcomes.dtype == ref_outcomes.dtype
        assert np.array_equal(pcs, ref_pcs)
        assert np.array_equal(outcomes, ref_outcomes)

    def test_run_site_outside_the_plan_raises(self):
        plan, visits, runs = event_records("gcc", 5_000)
        bad = runs.copy()
        bad[len(bad) // 2] = (plan.num_sites << 14) | (1 << 1) | 1
        with pytest.raises(ValueError, match="run names a site"):
            _cgen.assemble(plan, visits, bad, 5_000)

    def test_visit_region_outside_the_plan_raises(self):
        plan, visits, runs = event_records("gcc", 5_000)
        bad = visits.copy()
        bad[-1] = (bad[-1] & ~(((1 << 13) - 1) << 13)) | (len(plan.regions) << 13)
        with pytest.raises(ValueError, match="visit names a region"):
            _cgen.assemble(plan, bad, runs, 5_000)

    def test_correlated_flip_past_the_pool_raises(self):
        # drop the runs of the first noisy correlated site and every site
        # after it: its flips now start at the end of the pool
        plan, visits, runs = event_records("gcc", 5_000)
        pcs, _ = _cgen.assemble(plan, visits, runs, 5_000)
        noisy = np.flatnonzero((plan.kind == fastgen._K_CORR) & plan.corr_flip)
        site = int(noisy[np.isin(plan.template[noisy], pcs)][0])
        with pytest.raises(ValueError, match="correlated flip reads past"):
            _cgen.assemble(plan, visits, runs[(runs >> 14) < site], 5_000)


class TestEngineSelection:
    def test_engine_name_reports_compiler(self):
        assert fastgen.engine_name() in ("fastgen-c", "fastgen-py")
        with faults.deny_compiler():
            assert fastgen.engine_name() == "fastgen-py"
            assert "REPRO_NO_CC" in _cgen.unavailable_reason()

    def test_unsupported_program_refused(self):
        class Tweaked(BiasedBehavior):
            """A subclass may override draw logic: must be refused."""

        program = build_program(get_profile("compress"), seed=0)
        site = program.regions[0].sites()[0]
        original = site.behavior
        try:
            site.behavior = Tweaked(p_taken=0.5)
            assert not fastgen.supports(program)
            with pytest.raises(fastgen.UnsupportedProgram):
                fastgen.fast_run(program, 1_000, seed=1)
        finally:
            site.behavior = original


class TestDispatch:
    """Engine routing in generate_trace."""

    def test_default_is_fast_and_identical_to_scalar(self):
        profile = get_profile("xlisp")
        fast = generate_trace(profile, length=20_000, seed=3)
        program = build_program(profile, seed=3)
        slow = program.run(length=20_000, seed=7)  # run seed = 2 * seed + 1
        assert_bit_identical(fast, slow)
        assert fast.metadata["paper_static"] == profile.paper_static

    def test_fast_mode_records_engine(self):
        generate_trace(get_profile("compress"), length=1_000, seed=0)
        (event,) = health.events(component="tracegen")
        assert event.expected == "fastgen-c"
        assert event.actual == fastgen.engine_name()

    def test_python_engine_counts_as_degraded(self):
        with faults.deny_compiler():
            generate_trace(get_profile("compress"), length=1_000, seed=0)
        (event,) = health.events(component="tracegen")
        assert event.actual == "fastgen-py"
        assert event.severity == "degraded"

    def test_unsupported_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(fastgen, "supports", lambda program: False)
        trace = generate_trace(get_profile("go"), length=2_000, seed=1)
        reference = build_program(get_profile("go"), seed=1).run(length=2_000, seed=3)
        assert np.array_equal(trace.outcomes, reference.outcomes)
        events = health.events(component="tracegen")
        fallback = [e for e in events if e.actual == "scalar"]
        assert fallback and fallback[0].severity == "degraded"
