"""Vectorized trace-generation fast path, bit-identical to ``Program.run``.

``Program.run`` walks the region graph emitting one branch at a time:
every dynamic branch pays a Python method call, a history update and two
list appends, which caps generation at ~1 M branches/s and makes the
trace pipeline — not simulation — the wall for paper-length sweeps.

This module regenerates the *same* trace in two passes:

1. **Event pass** (scalar, but tiny): replay only the points where the
   shared ``random.Random`` stream is actually consumed.  The key
   observation is that draw *timing* is history-independent: behaviours
   draw at phase boundaries (bursty biased/correlated sites), on every
   execution (weak sites), at loop-visit starts, and once per region
   execution (the jump check) — and none of those schedules depend on
   branch outcomes, only on earlier draws.  So the pass walks the visit
   schedule, consumes draws in exactly the order ``Program.run`` would
   (body position order within an iteration, loop back-edge at the end
   of iteration 0, jump check after the visit), and records run-length
   encoded phase values per static site.  Each region keeps a
   persistent min-heap of pending phase boundaries keyed by
   ``(region iteration, body position)`` — the draw order within an
   iteration — so cost is O(draws log sites + visits), typically an
   order of magnitude fewer steps than branches.

2. **Assembly pass** (C; numpy without a compiler): expand the visit
   and run records into ``pcs``/``outcomes``.  The compiled loop
   (``_cgen.assemble``) walks the trace in order: it lays each site's
   phase runs end to end in one pool (a counting sort by site), writes
   ``pcs`` from the site template, reads run sites from the pool and
   pattern sites from the within-visit iteration index, and resolves
   each correlated site straight from the outcomes a few positions
   back, which are already final in trace order.  Every index it
   derives from the records is checked, so malformed records raise
   instead of reaching memory they do not own.

   The numpy form (:func:`_assemble`), used only without a compiler as
   :func:`_events_py` is for the event pass, builds the same arrays
   with gathers and one ``np.repeat``, and resolves correlated sites —
   the only history-*dependent* population — with vectorized waves over
   the dependency DAG.  A correlated element is ready when no
   *unresolved* element sits in its history window; since unresolved
   elements are a sorted index set, readiness is one vectorized gap
   test per wave (an element is ready iff its nearest unresolved
   predecessor falls outside its window), so each wave costs
   O(pending), not O(trace).  Pathologically deep chains that survive
   the wave budget are finished by a scalar sweep in index order, which
   always makes progress because the earliest unresolved element is
   ready by construction.

Bit-identity with ``Program.run`` holds because the event pass consumes
the Mersenne-Twister stream through the same ``random.Random`` API in
the same order, and the one inlined draw formula (``expovariate``) is
verified bit-exact against the stdlib at runtime (:func:`supports`
reports ``False`` — and the dispatcher falls back to the scalar
generator — if the host Python ever diverges).  The differential suite
in ``tests/test_fastgen.py`` checks full-trace equality for every
registered profile.

Programs outside the fast path's replay envelope — behaviour
*subclasses* (which may override draw logic), loops beyond 8191
iterations, or bursts beyond ~200 — are refused via
:class:`UnsupportedProgram`; the dispatcher in
:func:`repro.workloads.generator.generate_trace` then runs the scalar
path and emits a :mod:`repro.health` degradation event.
"""

from __future__ import annotations

import heapq
import math
from random import Random
from types import SimpleNamespace
from typing import List, Optional, Tuple

import numpy as np

from repro.traces.record import BranchTrace
from repro.workloads import _cgen
from repro.workloads.cfg import Program
from repro.workloads.components import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)

__all__ = ["UnsupportedProgram", "supports", "fast_run"]


class UnsupportedProgram(ValueError):
    """The program uses behaviours the fast path cannot replay."""


# Site kinds for the assembly pass.
_K_RUN = 0  # outcome comes straight from the phase-run pool
_K_PATTERN = 1  # outcome = pattern[within-visit iteration % len]
_K_CORR = 2  # outcome = table[history bits] ^ flip

_PMAX = 6  # CorrelatedBehavior input cap
_PAD = 1 << 62  # position padding: source index underflows far below 0

# Packed-record layouts (single int per event keeps the hot loop to one
# list append).  Runs: (site << 14) | (length << 13-bit) | value;
# visits: (prior << 26) | (region << 13) | iterations.
_RUN_BITS = 13
_RUN_MAX = (1 << _RUN_BITS) - 1
_REGION_BITS = 13

#: log(1/2^-53) — the largest value ``-log(1 - random())`` can take —
#: bounds boundary run lengths at ~36.74 * burst_length.
_EXPO_CEIL = 36.75

#: Cap on vectorized resolution waves before the compact scalar sweep
#: takes the (by then chain-dominated) correlated remainder.
_MAX_WAVES = 8


_formulas_ok: Optional[bool] = None


def _inline_formulas_match() -> bool:
    """Verify the inlined ``expovariate`` replication against the stdlib.

    The event pass inlines ``rng.expovariate(lambd)`` as
    ``-log(1 - rng.random()) / lambd`` (the CPython formula since 2.x).
    Checked bit-exactly once per process; a mismatch (some future
    stdlib rewrite) disables the fast path rather than corrupting
    traces.
    """
    global _formulas_ok
    if _formulas_ok is None:
        ref, mine = Random(0x5EED5), Random(0x5EED5)
        _formulas_ok = all(
            ref.expovariate(lambd) == -math.log(1.0 - mine.random()) / lambd
            for lambd in (1.0 / 16, 1.0 / 12, 1.0 / 3, 1.0, 2.5)
            for _ in range(8)
        )
    return _formulas_ok


class _RegionPlan:
    """Flattened draw/emit schedule of one region."""

    __slots__ = ("width", "gbase", "heap0", "perexec", "loop", "max_iter")

    def __init__(self, width, gbase, heap0, perexec, loop, max_iter):
        self.width = width
        self.gbase = gbase
        # Initial boundary heap: [(0, pos, (gid, rate, 1/burst, base))]
        # sorted by position (a sorted list is a valid min-heap).
        self.heap0 = heap0
        # [(pos, gid, p)] — sites drawing on every execution
        self.perexec = perexec
        # (gid, trip_count, jitter, resample_prob) or None
        self.loop = loop
        self.max_iter = max_iter


class _Plan:
    """Per-program static tables for both passes."""

    __slots__ = (
        "regions",
        "num_sites",
        "template",
        "widths",
        "gbase",
        "kind",
        "pat_base",
        "pat_len",
        "pattern_pool",
        "corr_row",
        "corr_flip",
        "posmat",
        "tab_base",
        "table_pool",
        "cl",
    )


def _prepare(program: Program) -> _Plan:
    """Compile the program into flat numpy-friendly tables.

    Raises :class:`UnsupportedProgram` on any behaviour that is not one
    of the four concrete component classes (exact type match: a
    subclass may override draw logic we cannot replay) or whose
    parameters overflow the packed-record layout.
    """
    if not _inline_formulas_match():  # pragma: no cover - stdlib-dependent
        raise UnsupportedProgram("stdlib expovariate formula diverged")
    if len(program.regions) >= (1 << _REGION_BITS):
        raise UnsupportedProgram(f"{len(program.regions)} regions overflow the fast path")

    plan = _Plan()
    region_plans: List[_RegionPlan] = []
    template: List[int] = []
    kind: List[int] = []
    pat_base: List[int] = []
    pat_len: List[int] = []
    pattern_pool: List[bool] = []
    corr_row: List[int] = []
    corr_flip: List[bool] = []
    posmat: List[List[int]] = []
    tab_base: List[int] = []
    table_pool: List[bool] = []

    def add_site(address, k, pbase=0, plen=0, crow=-1, cflip=False):
        template.append(address)
        kind.append(k)
        pat_base.append(pbase)
        pat_len.append(plen)
        corr_row.append(crow)
        corr_flip.append(cflip)

    def check_burst(burst: int) -> None:
        if round(_EXPO_CEIL * burst) >= _RUN_MAX:
            raise UnsupportedProgram(
                f"burst_length {burst} overflows the packed run layout"
            )

    gid = 0
    for region in program.regions:
        if region.max_iterations > _RUN_MAX:
            raise UnsupportedProgram(
                f"max_iterations {region.max_iterations} overflows the fast path"
            )
        gbase = gid
        heap0: List[Tuple] = []
        perexec: List[Tuple] = []
        for pos, site in enumerate(region.body):
            beh = site.behavior
            cls = type(beh)
            if cls is BiasedBehavior:
                add_site(site.address, _K_RUN)
                if beh.burst_length == 1:
                    perexec.append((pos, (gid << 14) | 2, beh.p_taken))
                else:
                    check_burst(beh.burst_length)
                    tail = (
                        gid << 14,
                        min(beh.p_taken, 1.0 - beh.p_taken),
                        1.0 / beh.burst_length,
                        beh.p_taken >= 0.5,
                    )
                    heap0.append((0, pos, tail))
            elif cls is PatternBehavior:
                add_site(
                    site.address,
                    _K_PATTERN,
                    pbase=len(pattern_pool),
                    plen=len(beh.pattern),
                )
                pattern_pool.extend(beh.pattern)
            elif cls is CorrelatedBehavior:
                row = len(posmat)
                add_site(site.address, _K_CORR, crow=row, cflip=bool(beh.noise))
                posmat.append(
                    list(beh.positions) + [_PAD] * (_PMAX - len(beh.positions))
                )
                tab_base.append(len(table_pool))
                table_pool.extend(beh.table)
                if beh.noise:
                    if beh.burst_length == 1:
                        perexec.append((pos, (gid << 14) | 2, beh.noise))
                    else:
                        check_burst(beh.burst_length)
                        tail = (gid << 14, beh.noise, 1.0 / beh.burst_length, False)
                        heap0.append((0, pos, tail))
            else:
                raise UnsupportedProgram(
                    f"body site behaviour {cls.__name__} has no fast-path replay"
                )
            gid += 1
        loop_plan = None
        if region.loop is not None:
            lb = region.loop.behavior
            if type(lb) is not LoopBehavior:
                raise UnsupportedProgram(
                    f"loop site behaviour {type(lb).__name__} has no fast-path replay"
                )
            add_site(region.loop.address, _K_RUN)
            loop_plan = (gid << 14, lb.trip_count, lb.jitter, lb.resample_prob)
            gid += 1
        width = len(region.body) + (1 if region.loop is not None else 0)
        region_plans.append(
            _RegionPlan(width, gbase, heap0, perexec, loop_plan, region.max_iterations)
        )

    plan.regions = region_plans
    plan.num_sites = gid
    plan.template = np.asarray(template, dtype=np.int64)
    plan.widths = np.asarray([rp.width for rp in region_plans], dtype=np.int64)
    plan.gbase = np.asarray([rp.gbase for rp in region_plans], dtype=np.int64)
    plan.kind = np.asarray(kind, dtype=np.uint8)
    plan.pat_base = np.asarray(pat_base, dtype=np.int64)
    plan.pat_len = np.asarray(pat_len, dtype=np.int64)
    plan.pattern_pool = (
        np.asarray(pattern_pool, dtype=bool) if pattern_pool else np.zeros(1, dtype=bool)
    )
    plan.corr_row = np.asarray(corr_row, dtype=np.int64)
    plan.corr_flip = np.asarray(corr_flip, dtype=bool)
    plan.posmat = (
        np.asarray(posmat, dtype=np.int64)
        if posmat
        else np.zeros((1, _PMAX), dtype=np.int64)
    )
    plan.tab_base = np.asarray(tab_base or [0], dtype=np.int64)
    plan.table_pool = (
        np.asarray(table_pool, dtype=bool) if table_pool else np.zeros(1, dtype=bool)
    )

    # Flat C layout for the compiled event driver (cheap; built even
    # when the driver is unavailable so dispatch stays branch-free).
    b_off, b_pos, b_g14, b_rate, b_lambd, b_base = [0], [], [], [], [], []
    p_off, p_pos, p_g142, p_p = [0], [], [], []
    loop_g14, loop_trip, loop_jit, loop_res = [], [], [], []
    for rp in region_plans:
        for _, bpos, (g14, rate, lambd, base) in rp.heap0:
            b_pos.append(bpos)
            b_g14.append(g14)
            b_rate.append(rate)
            b_lambd.append(lambd)
            b_base.append(base)
        b_off.append(len(b_pos))
        for ppos, g142, p in rp.perexec:
            p_pos.append(ppos)
            p_g142.append(g142)
            p_p.append(p)
        p_off.append(len(p_pos))
        if rp.loop is None:
            loop_g14.append(-1)
            loop_trip.append(0)
            loop_jit.append(0)
            loop_res.append(0.0)
        else:
            gl14, trip_count, jitter, resample_prob = rp.loop
            loop_g14.append(gl14)
            loop_trip.append(trip_count)
            loop_jit.append(jitter)
            loop_res.append(resample_prob)
    s_off, s_ent = [0], []
    for entries in program.schedule:
        s_ent.extend(entries)
        s_off.append(len(s_ent))
    plan.cl = SimpleNamespace(
        width=np.asarray([rp.width for rp in region_plans], dtype=np.int32),
        max_iter=np.asarray([rp.max_iter for rp in region_plans], dtype=np.int32),
        loop_g14=np.asarray(loop_g14, dtype=np.int64),
        loop_trip=np.asarray(loop_trip, dtype=np.int64),
        loop_jit=np.asarray(loop_jit, dtype=np.int32),
        loop_res=np.asarray(loop_res, dtype=np.float64),
        b_off=np.asarray(b_off, dtype=np.int64),
        b_pos=np.asarray(b_pos, dtype=np.int32),
        b_g14=np.asarray(b_g14, dtype=np.int64),
        b_rate=np.asarray(b_rate, dtype=np.float64),
        b_lambd=np.asarray(b_lambd, dtype=np.float64),
        b_base=np.asarray(b_base, dtype=np.uint8),
        p_off=np.asarray(p_off, dtype=np.int64),
        p_pos=np.asarray(p_pos, dtype=np.int32),
        p_g142=np.asarray(p_g142, dtype=np.int64),
        p_p=np.asarray(p_p, dtype=np.float64),
        s_off=np.asarray(s_off, dtype=np.int64),
        s_ent=np.asarray(s_ent, dtype=np.int32),
    )
    return plan


def _plan_of(program: Program) -> _Plan:
    # Plans are static per Program; cached on the instance so repeated
    # generation (sweeps, store materialization retries) compiles once.
    plan = getattr(program, "_fastgen_plan", None)
    if plan is None:
        plan = _prepare(program)
        try:
            program._fastgen_plan = plan
        except (AttributeError, TypeError):  # pragma: no cover - slots
            pass
    return plan


def supports(program: Program) -> bool:
    """Whether :func:`fast_run` can replay this program bit-exactly."""
    try:
        _plan_of(program)
    except UnsupportedProgram:
        return False
    return True


def fast_run(program: Program, length: int, seed: int = 0) -> BranchTrace:
    """Vectorized, bit-identical equivalent of ``Program.run``."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length >= 1 << 34:
        raise UnsupportedProgram(f"length {length} overflows the packed visit layout")
    plan = _plan_of(program)
    program.reset()  # mirror Program.run's behaviour-state side effect
    records = _event_pass(plan, program, length, seed)
    # pass 2: the compiled assembly loop, else its numpy form
    if _cgen.available():
        pcs, outcomes = _cgen.assemble(plan, *records, length)
    else:
        pcs, outcomes = _assemble(plan, *records, length)
    return BranchTrace(
        pcs=pcs, outcomes=outcomes, name=program.name, metadata=dict(program.metadata)
    )


def _event_pass(plan, program, length, seed):
    """Pass 1: the packed ``(visits, runs)`` records of a run (compiled
    driver, else pure Python)."""
    rng = Random(seed)
    chooser = np.random.default_rng(seed ^ 0x5EED)
    jump_arr = chooser.choice(
        len(program.regions), size=max(64, length // 16 + 16), p=program.weights
    )
    records = None
    if length and _cgen.available():
        records = _cgen.events(plan.cl, rng, jump_arr, program.jump_prob, length)
    if records is None:
        records = _events_py(plan, program, rng, jump_arr.tolist(), length)
    return records


def engine_name() -> str:
    """Which event-replay engine :func:`fast_run` currently uses."""
    return "fastgen-c" if _cgen.available() else "fastgen-py"


def _events_py(plan, program, rng, jump_targets, length):
    """The pure-Python event replay (same stream walk as the C driver)."""
    njump = len(jump_targets)
    jump_pos = 1
    current = jump_targets[0]
    jump_prob = program.jump_prob

    schedule = program.schedule
    num_regions = len(program.regions)
    pointers = [0] * num_regions

    plans = plan.regions
    heaps = [rp.heap0[:] for rp in plans]  # sorted-by-pos lists are valid heaps
    loop_rem: List[Optional[int]] = [None] * num_regions
    loop_trip: List[Optional[int]] = [None] * num_regions
    prior = [0] * num_regions  # cumulative iterations per region

    visits: List[int] = []  # (prior << 26) | (region << 13) | iterations
    runs: List[int] = []  # (site << 14) | (length << 1) | value

    rr = rng.random
    randint = rng.randint
    log = math.log
    replace = heapq.heapreplace
    runs_app = runs.append
    visits_app = visits.append

    emitted = 0
    while emitted < length:
        rp = plans[current]
        pr = prior[current]
        H = heaps[current]
        perexec = rp.perexec

        # iteration 0: body sites in position order
        if perexec:
            for pos, g142, p in perexec:
                while H and H[0][0] == pr and H[0][1] < pos:
                    head = H[0]
                    tail = head[2]
                    bg14, rate, lambd, base = tail
                    dev = rr() < rate
                    run = round(-log(1.0 - rr()) / lambd) or 1
                    runs_app(bg14 | (run << 1) | (base ^ dev))
                    replace(H, (pr + run, head[1], tail))
                runs_app(g142 | (rr() < p))
        while H and H[0][0] == pr:
            head = H[0]
            tail = head[2]
            bg14, rate, lambd, base = tail
            dev = rr() < rate
            run = round(-log(1.0 - rr()) / lambd) or 1
            runs_app(bg14 | (run << 1) | (base ^ dev))
            replace(H, (pr + run, head[1], tail))

        # loop back-edge of iteration 0 decides the visit's iteration count
        lp = rp.loop
        if lp is None:
            it = 1
        else:
            gl14, trip_count, jitter, resample_prob = lp
            rem = loop_rem[current]
            if rem is None:
                trip = loop_trip[current]
                if trip is None or (jitter and rr() < resample_prob):
                    trip = (
                        max(1, trip_count + randint(-jitter, jitter))
                        if jitter
                        else trip_count
                    )
                    loop_trip[current] = trip
                rem = trip
            if rem <= rp.max_iter:
                it = rem
                loop_rem[current] = None
                if it > 1:
                    runs_app(gl14 | ((it - 1) << 1) | 1)
                runs_app(gl14 | 2)
            else:
                it = rp.max_iter
                loop_rem[current] = rem - it
                runs_app(gl14 | (it << 1) | 1)

        # iterations 1..it-1: remaining boundary events in (iteration,
        # position) order; per-execution sites draw every iteration.
        if it > 1:
            end = pr + it
            if perexec:
                for t in range(pr + 1, end):
                    if H and H[0][0] == t:
                        for pos, g142, p in perexec:
                            while H and H[0][0] == t and H[0][1] < pos:
                                head = H[0]
                                tail = head[2]
                                bg14, rate, lambd, base = tail
                                dev = rr() < rate
                                run = round(-log(1.0 - rr()) / lambd) or 1
                                runs_app(bg14 | (run << 1) | (base ^ dev))
                                replace(H, (t + run, head[1], tail))
                            runs_app(g142 | (rr() < p))
                        while H and H[0][0] == t:
                            head = H[0]
                            tail = head[2]
                            bg14, rate, lambd, base = tail
                            dev = rr() < rate
                            run = round(-log(1.0 - rr()) / lambd) or 1
                            runs_app(bg14 | (run << 1) | (base ^ dev))
                            replace(H, (t + run, head[1], tail))
                    else:
                        for pos, g142, p in perexec:
                            runs_app(g142 | (rr() < p))
            else:
                while H and H[0][0] < end:
                    head = H[0]
                    t = head[0]
                    tail = head[2]
                    bg14, rate, lambd, base = tail
                    dev = rr() < rate
                    run = round(-log(1.0 - rr()) / lambd) or 1
                    runs_app(bg14 | (run << 1) | (base ^ dev))
                    replace(H, (t + run, head[1], tail))
        else:
            end = pr + 1

        visits_app((pr << 26) | (current << _RUN_BITS) | it)
        prior[current] = end
        emitted += rp.width * it
        if emitted >= length:
            break

        # dispatch: random Zipf jump, else the deterministic schedule
        if jump_prob and rr() < jump_prob:
            if jump_pos >= njump:
                jump_pos = 0
            current = jump_targets[jump_pos]
            jump_pos += 1
            continue
        entries = schedule[current]
        pointer = pointers[current]
        pointers[current] = pointer + 1 if pointer + 1 < len(entries) else 0
        current = entries[pointer]

    return (
        np.asarray(visits, dtype=np.int64),
        np.asarray(runs, dtype=np.int64),
    )


def _assemble(plan, venc, renc, length):
    """Pass 2 in numpy, the no-compiler form of ``_cgen.assemble``:
    expand the visit/run event records into ``(pcs, outcomes)``."""
    if not venc.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

    its_v = venc & _RUN_MAX
    regs_v = (venc >> _RUN_BITS) & ((1 << _REGION_BITS) - 1)
    priors_v = venc >> 26
    e_v = plan.widths[regs_v] * its_v
    starts_v = np.concatenate(([0], np.cumsum(e_v)))
    total = int(starts_v[-1])
    idt = np.int64 if total > 2**31 - 1 else np.int32

    w_i = np.repeat(plan.widths.astype(idt)[regs_v], e_v)
    k = np.arange(total, dtype=idt) - np.repeat(starts_v[:-1].astype(idt), e_v)
    q, pos = np.divmod(k, w_i)
    gi = np.repeat(plan.gbase.astype(idt)[regs_v], e_v) + pos
    exec_i = np.repeat(priors_v.astype(idt), e_v) + q
    del k, pos, w_i

    gi = gi[:length]
    q = q[:length]
    exec_i = exec_i[:length]
    pcs = plan.template[gi]

    # phase runs -> per-site outcome pools
    if renc.size:
        rg_a = renc >> 14
        rl_a = (renc >> 1) & _RUN_MAX
        rv_a = (renc & 1).astype(bool)
        order = np.argsort(rg_a.astype(np.int32), kind="stable")
        pool = np.repeat(rv_a[order], rl_a[order])
        site_tot = np.bincount(rg_a, weights=rl_a, minlength=plan.num_sites)
        pool_base = np.zeros(plan.num_sites, dtype=idt)
        np.cumsum(site_tot[:-1], out=site_tot[:-1])
        pool_base[1:] = site_tot[:-1].astype(idt)
    else:  # pragma: no cover - only patterns/noise-free correlations
        pool = np.zeros(1, dtype=bool)
        pool_base = np.zeros(plan.num_sites, dtype=idt)

    # gather run-pool values for every element (cheaper than a masked
    # scatter; pattern/correlated elements are overwritten below, their
    # bogus pool indices are clipped into range)
    pidx = pool_base[gi] + exec_i
    np.minimum(pidx, idt(pool.size - 1), out=pidx)
    out = pool[pidx]
    kin = plan.kind[gi]
    m_pat = kin == _K_PATTERN
    if m_pat.any():
        gp = gi[m_pat]
        out[m_pat] = plan.pattern_pool[plan.pat_base[gp] + q[m_pat] % plan.pat_len[gp]]

    ci = np.flatnonzero(kin == _K_CORR)
    if ci.size:
        out[ci] = False  # clipped-gather garbage must not leak into history
        _resolve_correlated(plan, out, ci, gi[ci], exec_i[ci], pool, pool_base)

    return pcs, out


def _resolve_correlated(plan, out, ci, g_c, exec_c, pool, pool_base):
    """Fill correlated-site outcomes into ``out`` (in place).

    A correlated element reads history bits — outcomes of elements a
    few positions back — so correlated elements form a dependency DAG
    over the trace.  Each vectorized wave resolves every element whose
    source positions all point at already-resolved elements (sources
    are located in the still-unresolved sorted index set with one
    ``searchsorted``).  Waves keep running while they pay off; once the
    remainder is dominated by chains (each wave peels only the chain
    heads), the leftovers are finished by a compact scalar sweep in
    index order: resolved-source contributions are pre-folded into a
    per-element partial table index, so the loop touches only the
    unresolved corr→corr edges — it never materializes the full trace
    as a Python list.
    """
    row = plan.corr_row[g_c]
    tb = plan.tab_base[row]
    src = ci.astype(np.int64)[:, None] - 1 - plan.posmat[row]  # pads underflow < 0
    srcc = np.maximum(src, 0)  # pad-clipped gather indices
    valid = src >= 0
    has_flip = plan.corr_flip[g_c]
    fidx = np.where(has_flip, pool_base[g_c].astype(np.int64) + exec_c, 0)
    flips = np.where(has_flip, pool[fidx], False)
    bitw = 1 << np.arange(_PMAX, dtype=np.int64)
    table = plan.table_pool

    # O(1) unresolved-source test: a trace-length mask updated per wave
    unres_mask = np.zeros(out.size, dtype=bool)
    unres_mask[ci] = True
    pend = np.arange(ci.size)
    for _ in range(_MAX_WAVES):
        if not pend.size:
            break
        s = srcc[pend]
        ready = ~(unres_mask[s] & valid[pend]).any(axis=1)
        sel = pend[ready]
        if sel.size:
            bits = out[srcc[sel]] & valid[sel]
            index = (bits * bitw).sum(axis=1)
            tgt = ci[sel]
            out[tgt] = table[tb[sel] + index] ^ flips[sel]
            unres_mask[tgt] = False
            pend = pend[~ready]
        # chains resolve one link per wave; hand them to the sweep
        if sel.size * 4 < ready.size:
            break

    if pend.size:
        m = pend.size
        idx = ci[pend]
        s = src[pend]
        unres = unres_mask[srcc[pend]] & valid[pend]
        bits = out[srcc[pend]] & valid[pend] & ~unres
        part = (bits * bitw).sum(axis=1) + tb[pend]
        pos = np.searchsorted(idx, s)  # pend-local index of unresolved sources
        np.minimum(pos, m - 1, out=pos)
        ej, eb = np.nonzero(unres)
        ek = pos[ej, eb]
        ej_l = ej.tolist()
        ek_l = ek.tolist()
        ew_l = (1 << eb).tolist()
        part_l = part.tolist()
        flips_l = flips[pend].tolist()
        table_l = table.tolist()
        vals = [False] * m
        e = 0
        ne = len(ej_l)
        for j in range(m):
            acc = part_l[j]
            while e < ne and ej_l[e] == j:
                if vals[ek_l[e]]:
                    acc += ew_l[e]
                e += 1
            vals[j] = table_l[acc] ^ flips_l[j]
        out[idx] = vals
