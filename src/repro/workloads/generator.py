"""Build synthetic programs from benchmark profiles.

:func:`build_program` turns a :class:`~repro.workloads.profiles.BenchmarkProfile`
into a concrete :class:`~repro.workloads.cfg.Program` — deterministically
in ``(profile, seed)`` — and :func:`generate_trace` runs it through the
vectorized generator of :mod:`repro.workloads.fastgen` (its compiled
event pass unless ``REPRO_NO_CC=1``), bit-identical to the reference
``Program.run``.

Construction sketch:

* regions are added until the profile's static branch budget (the
  paper's Table 2 static count) is consumed exactly;
* each region gets a geometric-ish body size, an optional loop
  back-edge, and body behaviours sampled from the profile's mix;
* regions are laid out densely in the user address space (kernel
  regions, for IBS-style profiles, above ``kernel_base``), so low-order
  address-bit collisions — the raw material of PHT aliasing — occur at
  realistic rates;
* dispatcher weights are Zipf with the profile's skew, assigned in a
  shuffled order so hotness is uncorrelated with address and behaviour.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Tuple
from zlib import crc32

import numpy as np

from repro.traces.record import BranchTrace
from repro.workloads.cfg import BranchSite, Program, Region, zipf_weights
from repro.workloads.components import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.workloads.profiles import BenchmarkProfile

__all__ = ["build_program", "generate_trace", "KERNEL_BASE"]

#: Word address where the synthetic kernel text segment starts
#: (recorded in trace metadata for the user/kernel split filter).
KERNEL_BASE = 1 << 22


# Region types and their behaviour mixes (biased, correlated, pattern,
# weak).  Hard-to-predict branches cluster in real code — most loops and
# guard-heavy regions contain none — so instead of sprinkling the
# profile mix uniformly (which would poison nearly every history window
# with a random bit), each region draws a *type* and samples sites from
# that type's mix.  Type probabilities are solved per profile so the
# aggregate site mix still matches the profile.
_REGION_TYPES = {
    "biased": (0.90, 0.06, 0.04, 0.00),
    "correlated": (0.42, 0.52, 0.06, 0.00),
    "hard": (0.28, 0.14, 0.04, 0.54),
    "pattern": (0.55, 0.13, 0.32, 0.00),
}


def _region_type_weights(profile: BenchmarkProfile):
    """Least-squares type probabilities reproducing the profile mix."""
    names = list(_REGION_TYPES)
    matrix = np.array([_REGION_TYPES[t] for t in names]).T  # families x types
    target = np.array(
        [profile.mix.biased, profile.mix.correlated, profile.mix.pattern, profile.mix.weak]
    )
    weights, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    weights = np.clip(weights, 0.0, None)
    if weights.sum() <= 0:
        weights = np.ones(len(names))
    weights = weights / weights.sum()
    return names, weights.tolist()


def _sample_site_behavior(
    profile: BenchmarkProfile, type_mix, rng: Random
) -> BranchBehavior:
    """One body-site behaviour drawn from a region type's mix."""
    biased, correlated, pattern, _weak = type_mix
    r = rng.random()
    if r < biased:
        # strongly biased static branch; direction split by taken_bias_fraction
        strength = profile.strong_bias + rng.uniform(-0.005, 0.004)
        strength = min(0.9995, max(0.92, strength))
        if rng.random() < profile.taken_bias_fraction:
            return BiasedBehavior(strength, burst_length=12)
        return BiasedBehavior(1.0 - strength, burst_length=12)
    r -= biased
    if r < correlated:
        depth = rng.randint(*profile.correlated_depth)
        return CorrelatedBehavior.random(
            depth, rng, noise=profile.correlated_noise, burst_length=16
        )
    r -= correlated
    if r < pattern:
        length = rng.randint(*profile.pattern_length)
        body = [rng.random() < 0.5 for _ in range(length)]
        if all(body) or not any(body):
            body[0] = not body[0]  # force a genuine pattern
        return PatternBehavior(body)
    # remainder: intrinsically weakly-biased branches
    return BiasedBehavior(rng.uniform(*profile.weak_p_range))


def build_program(profile: BenchmarkProfile, seed: int = 0) -> Program:
    """Construct the synthetic program for ``profile``.

    The program has exactly ``profile.static_branches`` static branch
    sites.  Deterministic in ``(profile.name, seed)``.
    """
    rng = Random((crc32(profile.name.encode()) << 8) ^ seed)
    budget = profile.static_branches
    if budget < 1:
        raise ValueError(f"profile {profile.name!r} has no static branches")

    type_names, type_weights = _region_type_weights(profile)
    regions: List[Region] = []
    region_types: List[str] = []
    next_address = 64  # leave the zero page empty
    remaining = budget
    while remaining > 0:
        region_type = rng.choices(type_names, weights=type_weights, k=1)[0]
        type_mix = _REGION_TYPES[region_type]
        body_size = max(1, round(rng.gauss(profile.region_size, profile.region_size / 3)))
        wants_loop = rng.random() < profile.loop_fraction
        sites_needed = body_size + (1 if wants_loop else 0)
        if sites_needed > remaining:
            # last region: consume the remainder exactly
            wants_loop = wants_loop and remaining >= 2
            body_size = remaining - (1 if wants_loop else 0)
            if body_size < 1:
                wants_loop = False
                body_size = remaining

        is_kernel = rng.random() < profile.kernel_fraction
        base = next_address if not is_kernel else next_address + KERNEL_BASE

        body = [
            BranchSite(
                address=base + 2 * i,
                behavior=_sample_site_behavior(profile, type_mix, rng),
            )
            for i in range(body_size)
        ]
        loop_site = None
        if wants_loop:
            trip = max(2, round(rng.gauss(profile.loop_trip, profile.loop_trip / 3)))
            loop_site = BranchSite(
                address=base + 2 * body_size + 1,  # odd ⇒ backward, for BTFNT
                behavior=LoopBehavior(
                    trip_count=trip, jitter=profile.loop_jitter, resample_prob=0.05
                ),
            )
        regions.append(Region(body=body, loop=loop_site))
        region_types.append(region_type)

        used = body_size + (1 if loop_site is not None else 0)
        remaining -= used
        next_address += 2 * used + 2 + rng.choice((0, 2, 4, 8))

    # Deterministic cyclic schedule: the hottest regions form a ring
    # (the program's main loop); every cold region hangs off the ring in
    # a short excursion chain, visited on a fixed cadence.  Control flow
    # is then overwhelmingly repetitive — the property that makes global
    # history worth storing — while still covering every region.
    #
    # Hard (weakly-biased) regions mostly stay out of the ring: a single
    # data-dependent branch inside the hot loop would re-randomize every
    # history window each lap.  Profiles with a genuinely large weak
    # population (go) do place hard regions in the ring, which is
    # exactly what makes them hard for every predictor.
    num_regions = len(regions)
    order = list(range(num_regions))
    rng.shuffle(order)
    ring_size = max(2, min(num_regions, round(num_regions**0.5)))
    ring_hard = round(ring_size * max(0.0, profile.mix.weak - 0.1))
    hard = [r for r in order if region_types[r] == "hard"]
    clean = [r for r in order if region_types[r] != "hard"]
    ring_hard = min(ring_hard, len(hard))
    ring = clean[: ring_size - ring_hard] + hard[:ring_hard]
    if len(ring) < 2:  # tiny programs: take whatever there is
        ring = order[: max(2, min(num_regions, ring_size))]
    ring_size = len(ring)
    rng.shuffle(ring)
    in_ring = set(ring)
    cold = [r for r in order if r not in in_ring]

    # popularity (start point / random jumps) follows the structure:
    # ring regions first, then cold, Zipf-decayed
    weights = zipf_weights(num_regions, skew=profile.zipf_skew)
    shuffled = [0.0] * num_regions
    for rank, region_index in enumerate(ring + cold):
        shuffled[region_index] = float(weights[rank])

    # partition cold regions into excursion chains of 1-3
    chains: List[List[int]] = []
    i = 0
    while i < len(cold):
        chain_len = min(rng.randint(1, 3), len(cold) - i)
        chains.append(cold[i : i + chain_len])
        i += chain_len

    schedule: List[List[int]] = [[] for _ in range(num_regions)]
    host_chains: List[List[List[int]]] = [[] for _ in range(ring_size)]
    for j, chain in enumerate(chains):
        host_chains[j % ring_size].append(chain)

    for k, region_index in enumerate(ring):
        ring_next = ring[(k + 1) % ring_size]
        # bursty regions re-execute a couple of times before moving on
        burst = rng.randint(2, 3) if rng.random() < profile.repeat_prob else 1
        pattern = [region_index] * (burst - 1) + [ring_next]
        entries: List[int] = []
        my_chains = host_chains[k]
        if my_chains:
            for chain in my_chains:
                entries.extend(pattern * 5)  # several clean laps per excursion
                entries.extend([region_index] * (burst - 1) + [chain[0]])
                # wire the chain: each member falls through, the last
                # returns to the ring after this host
                for a, b in zip(chain, chain[1:]):
                    schedule[a] = [b]
                schedule[chain[-1]] = [ring_next]
        else:
            entries.extend(pattern)
        schedule[region_index] = entries

    return Program(
        regions=regions,
        schedule=schedule,
        weights=shuffled,
        jump_prob=profile.jump_prob,
        name=profile.name,
        metadata={
            "suite": profile.suite,
            "kernel_base": KERNEL_BASE,
            "profile_seed": seed,
        },
    )


# Programs are deterministic in (profile, seed) and their construction
# (plus the fast path's replay plan, cached on the instance) costs tens
# of milliseconds — noticeable once generation itself is fast.  Warm
# generations reuse the built program; ``Program.run`` resets behaviour
# state on entry, so reuse cannot change any trace.
_PROGRAM_CACHE: Dict[Tuple[str, int], Program] = {}
_PROGRAM_CACHE_MAX = 32


def _cached_program(profile: BenchmarkProfile, seed: int) -> Program:
    key = (profile.name, seed)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = build_program(profile, seed=seed)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[key] = program
    return program


def generate_trace(
    profile: BenchmarkProfile, length: int | None = None, seed: int = 0
) -> BranchTrace:
    """Generate the benchmark's branch trace.

    ``length`` defaults to the profile's scaled dynamic count.  The
    program-build seed and the run seed are derived from ``seed`` so one
    integer reproduces the whole trace.

    Generation runs the vectorized two-pass generator of
    :mod:`repro.workloads.fastgen`, which is bit-identical to the scalar
    ``Program.run``.  A program outside the fast path's envelope falls
    back to ``Program.run`` with a :mod:`repro.health` degradation
    event, never an error.
    """
    from repro import health
    from repro.workloads import fastgen

    if length is None:
        length = profile.default_length
    program = _cached_program(profile, seed)
    run_seed = seed * 2 + 1
    if fastgen.supports(program):
        trace = fastgen.fast_run(program, length, seed=run_seed)
        health.engine_used("tracegen", fastgen.engine_name(), expected="fastgen-c")
    else:
        health.emit(
            "tracegen",
            "fastgen",
            "scalar",
            reason=f"{profile.name}: program outside the fast-path envelope",
            severity="degraded",
        )
        trace = program.run(length=length, seed=run_seed)
    trace.metadata.update(
        {
            "paper_static": profile.paper_static,
            "paper_dynamic": profile.paper_dynamic,
        }
    )
    return trace
