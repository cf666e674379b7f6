"""Differential suite for the vectorized trace-generation fast path.

The contract under test is *bit-identity*: for every registered profile
and multiple (length, seed) points, :func:`repro.workloads.fastgen.fast_run`
must reproduce ``Program.run`` exactly — same pcs, same outcomes, same
metadata-bearing name — on both the compiled event-pass driver and the
pure-Python fallback.  Plus ``generate_trace``'s dispatch: engine
selection, health bookkeeping, and the scalar fallback for programs the
fast path refuses.
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
