"""Optional compiled drivers for trace generation.

:mod:`repro.workloads.fastgen` reduces trace generation to a sparse
event replay (phase-boundary draws, loop draws, jump checks) plus an
assembly pass that expands the replay's records into a trace.  The
replay is inherently sequential — every draw comes from one shared
Mersenne-Twister stream — so its cost is pure Python interpreter
overhead, ~1 µs per event.  This module holds the C source of both
passes; :mod:`repro._cbuild` compiles it with the system C compiler and
loads it via ctypes, as it does the predictor loops of
:mod:`repro.sim._cstep`:

* ``fastgen_events`` (:func:`events`) replays the draws into packed
  ``(visits, runs)`` records;
* ``fastgen_assemble`` (:func:`assemble`) turns those records into
  ``pcs``/``outcomes`` in one pass in trace order, checking every
  index it derives from them and returning an error code — raised by
  the wrapper — instead of reading or writing out of bounds.

Bit-identity with the Python replay (and therefore with
``Program.run``) rests on three pillars:

* the Mersenne-Twister state is handed over from
  ``random.Random.getstate()`` — seeding semantics never leave CPython;
* the C side replicates the exact CPython derivations on that stream:
  ``random()`` as ``((a >> 5) * 2^26 + (b >> 6)) / 2^53``,
  ``randint`` via ``_randbelow_with_getrandbits`` rejection sampling,
  ``round`` via CPython's half-to-even correction formula, and
  ``expovariate`` as ``-log(1 - random()) / lambd`` against the same
  libm;
* a load-time self-test draws doubles, randints and expovariate run
  lengths from both implementations and refuses the driver on any
  mismatch, so a platform where the replication does not hold silently
  degrades to the pure-Python replay instead of corrupting traces.

``REPRO_NO_CC=1`` disables both loops (tests use it to pin the Python
and numpy paths); any build, load or self-test failure is remembered
and surfaced through :func:`unavailable_reason` for the health report.
"""

from __future__ import annotations

import ctypes
from functools import partial
from random import Random
from typing import Optional, Tuple

import numpy as np

from repro import _cbuild
from repro._cbuild import ptr as _ptr

__all__ = [
    "available",
    "unavailable_reason",
    "events",
    "assemble",
]

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* ---- CPython-compatible Mersenne Twister -------------------------- */

typedef struct { uint32_t mt[624]; int pos; } MT;

static uint32_t genrand(MT *s)
{
    if (s->pos >= 624) {
        uint32_t *mt = s->mt;
        for (int i = 0; i < 624; i++) {
            uint32_t y = (mt[i] & 0x80000000u) | (mt[(i + 1) % 624] & 0x7fffffffu);
            mt[i] = mt[(i + 397) % 624] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        }
        s->pos = 0;
    }
    uint32_t y = s->mt[s->pos++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

/* random_random(): 53-bit double, exactly CPython's formula */
static double mt_random(MT *s)
{
    uint32_t a = genrand(s) >> 5, b = genrand(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random._randbelow_with_getrandbits(n): k = n.bit_length();
 * draw getrandbits(k) (= genrand() >> (32-k) for k <= 32) until < n. */
static int64_t mt_randbelow(MT *s, int64_t n)
{
    int k = 0;
    for (int64_t m = n; m > 0; m >>= 1) k++;
    uint32_t r = genrand(s) >> (32 - k);
    while ((int64_t)r >= n) r = genrand(s) >> (32 - k);
    return (int64_t)r;
}

/* float.__round__ with no digits: CPython rounds half-to-even by
 * correcting C round()'s half-away-from-zero result. */
static double py_round(double x)
{
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r;
}

/* ---- load-time self-test ------------------------------------------ */

void mt_selftest(const uint32_t *mt, int64_t pos,
                 double *outd, int64_t nd,
                 int64_t *outi, int64_t ni,
                 int64_t *outr, int64_t nrv)
{
    MT s;
    memcpy(s.mt, mt, sizeof(s.mt));
    s.pos = (int)pos;
    for (int64_t i = 0; i < nd; i++) outd[i] = mt_random(&s);
    for (int64_t i = 0; i < ni; i++) outi[i] = -3 + mt_randbelow(&s, 7);
    for (int64_t i = 0; i < nrv; i++) {
        double u = mt_random(&s);
        outr[i] = (int64_t)py_round(-log(1.0 - u) / (1.0 / 12.0));
    }
}

/* ---- event replay -------------------------------------------------- */

/* Replace the heap root's time with nt (same site, same position) and
 * restore the (t, pos) min-heap invariant. */
static void heap_sift(int64_t *ht, int32_t *hp, int32_t *hs, int64_t n, int64_t nt)
{
    int64_t t0 = nt;
    int32_t p0 = hp[0], s0 = hs[0];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= n) break;
        int64_t c = l, r = l + 1;
        if (r < n && (ht[r] < ht[l] || (ht[r] == ht[l] && hp[r] < hp[l]))) c = r;
        if (ht[c] < t0 || (ht[c] == t0 && hp[c] < p0)) {
            ht[i] = ht[c]; hp[i] = hp[c]; hs[i] = hs[c];
            i = c;
        } else break;
    }
    ht[i] = t0; hp[i] = p0; hs[i] = s0;
}

#define APP_RUN(v) do { if (nr >= runs_cap) return -1; runs[nr++] = (v); } while (0)

#define FIRE(T) do { \
    int32_t si = hs[0]; \
    int dev = mt_random(&s) < b_rate[si]; \
    double u = mt_random(&s); \
    int64_t run = (int64_t)py_round(-log(1.0 - u) / b_lambd[si]); \
    if (run == 0) run = 1; \
    APP_RUN(b_g14[si] | (run << 1) | (int64_t)(b_base[si] ^ dev)); \
    heap_sift(ht, hp, hs, hn, (T) + run); \
} while (0)

int64_t fastgen_events(
    const uint32_t *mt_init, int64_t mt_pos,
    int64_t R,
    const int32_t *width, const int32_t *max_iter,
    const int64_t *loop_g14, const int64_t *loop_trip, const int32_t *loop_jit,
    const double *loop_res,
    const int64_t *b_off, const int32_t *b_pos, const int64_t *b_g14,
    const double *b_rate, const double *b_lambd, const uint8_t *b_base,
    const int64_t *p_off, const int32_t *p_pos, const int64_t *p_g142,
    const double *p_p,
    const int64_t *s_off, const int32_t *s_ent,
    const int32_t *jt, int64_t njump, double jump_prob,
    int64_t length,
    int64_t *heap_t, int32_t *heap_pos, int32_t *heap_site,
    int64_t *prior, int64_t *lrem, int64_t *ltrip, int64_t *pointers,
    int64_t *runs, int64_t runs_cap,
    int64_t *visits, int64_t visits_cap,
    int64_t *counts)
{
    MT s;
    memcpy(s.mt, mt_init, sizeof(s.mt));
    s.pos = (int)mt_pos;

    for (int64_t r = 0; r < R; r++) {
        prior[r] = 0; lrem[r] = -1; ltrip[r] = -1; pointers[r] = 0;
        for (int64_t i = b_off[r]; i < b_off[r + 1]; i++) {
            heap_t[i] = 0;              /* in position order: a valid heap */
            heap_pos[i] = b_pos[i];
            heap_site[i] = (int32_t)i;
        }
    }

    int64_t nr = 0, nv = 0, emitted = 0, jpos = 1;
    int32_t cur = jt[0];
    while (emitted < length) {
        int64_t pr = prior[cur];
        int64_t hb = b_off[cur];
        int64_t hn = b_off[cur + 1] - hb;
        int64_t *ht = heap_t + hb;
        int32_t *hp = heap_pos + hb;
        int32_t *hs = heap_site + hb;
        int64_t pb = p_off[cur], pe = p_off[cur + 1];

        /* iteration 0: body sites in position order */
        if (pe > pb) {
            for (int64_t pi = pb; pi < pe; pi++) {
                int32_t pp = p_pos[pi];
                while (hn && ht[0] == pr && hp[0] < pp) FIRE(pr);
                APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
            }
        }
        while (hn && ht[0] == pr) FIRE(pr);

        /* loop back-edge decides the iteration count */
        int64_t it;
        int64_t lg = loop_g14[cur];
        if (lg < 0) it = 1;
        else {
            int64_t rem = lrem[cur];
            if (rem < 0) {
                int64_t trip = ltrip[cur];
                int32_t jit = loop_jit[cur];
                if (trip < 0 || (jit && mt_random(&s) < loop_res[cur])) {
                    if (jit) {
                        trip = loop_trip[cur] - jit + mt_randbelow(&s, 2 * (int64_t)jit + 1);
                        if (trip < 1) trip = 1;
                    } else trip = loop_trip[cur];
                    ltrip[cur] = trip;
                }
                rem = trip;
            }
            int64_t mi = max_iter[cur];
            if (rem <= mi) {
                it = rem; lrem[cur] = -1;
                if (it > 1) APP_RUN(lg | ((it - 1) << 1) | 1);
                APP_RUN(lg | 2);
            } else {
                it = mi; lrem[cur] = rem - mi;
                APP_RUN(lg | (mi << 1) | 1);
            }
        }

        /* iterations 1..it-1 */
        int64_t end;
        if (it > 1) {
            end = pr + it;
            if (pe > pb) {
                for (int64_t t = pr + 1; t < end; t++) {
                    if (hn && ht[0] == t) {
                        for (int64_t pi = pb; pi < pe; pi++) {
                            int32_t pp = p_pos[pi];
                            while (hn && ht[0] == t && hp[0] < pp) FIRE(t);
                            APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
                        }
                        while (hn && ht[0] == t) FIRE(t);
                    } else {
                        for (int64_t pi = pb; pi < pe; pi++)
                            APP_RUN(p_g142[pi] | (int64_t)(mt_random(&s) < p_p[pi]));
                    }
                }
            } else {
                while (hn && ht[0] < end) { int64_t t = ht[0]; FIRE(t); }
            }
        } else end = pr + 1;

        if (nv >= visits_cap) return -2;
        visits[nv++] = (pr << 26) | ((int64_t)cur << 13) | it;
        prior[cur] = end;
        emitted += (int64_t)width[cur] * it;
        if (emitted >= length) break;

        /* dispatch: random Zipf jump, else the deterministic schedule */
        if (jump_prob != 0.0 && mt_random(&s) < jump_prob) {
            if (jpos >= njump) jpos = 0;
            cur = jt[jpos++];
            continue;
        }
        int64_t so = s_off[cur];
        int64_t n_ent = s_off[cur + 1] - so;
        int64_t p = pointers[cur];
        pointers[cur] = (p + 1 < n_ent) ? p + 1 : 0;
        cur = s_ent[so + p];
    }
    counts[0] = nr;
    counts[1] = nv;
    return 0;
}

/* ---- assembly pass ------------------------------------------------- */

enum {
    AS_PLAN = -1,   /* a region, site or correlation table entry is malformed */
    AS_VISIT = -2,  /* a visit names a region outside [0, R) or a negative prior */
    AS_RUN = -3,    /* a run names a site outside [0, S) */
    AS_FLIP = -4,   /* a correlated flip reads past the run pool */
    AS_TABLE = -5,  /* a correlated table index falls outside the table pool */
    AS_NOMEM = -6
};

/* Expand the visit and run records into the first `length` branches,
 * in trace order.  Each site's phase runs are laid end to end in one
 * pool (a counting sort by site, stable in record order); a run site
 * reads its pool at its execution index, clipped to the pool's end; a
 * pattern site reads pattern_pool[pat_base + q % pat_len] at
 * within-visit iteration q; a correlated site reads its history bits
 * straight from out[t-1-pos], which is already final in trace order,
 * flipped by its pool value when it has noise.  Returns the number of
 * branches written (at most `length`) or a negative AS_ code; every
 * index is checked before it is used. */
int64_t fastgen_assemble(
    const int64_t *visits, int64_t nv,
    const int64_t *runs, int64_t nr,
    int64_t R, const int64_t *width, const int64_t *gbase,
    int64_t S, const int64_t *templ, const uint8_t *kind,
    const int64_t *pat_base, const int64_t *pat_len,
    const uint8_t *pattern_pool, int64_t npat,
    const int64_t *corr_row, const uint8_t *corr_flip,
    int64_t C, int64_t P, const int64_t *posmat, const int64_t *tab_base,
    const uint8_t *table_pool, int64_t ntab,
    int64_t length, int64_t *pcs, uint8_t *out)
{
    if (P < 0 || P > 62) return AS_PLAN;
    for (int64_t r = 0; r < R; r++)
        if (width[r] < 0 || gbase[r] < 0 || gbase[r] > S - width[r]) return AS_PLAN;
    for (int64_t c = 0; c < C; c++) {
        if (tab_base[c] < 0 || tab_base[c] > ntab) return AS_PLAN;
        for (int64_t b = 0; b < P; b++)
            if (posmat[c * P + b] < 0) return AS_PLAN;
    }
    for (int64_t g = 0; g < S; g++) {
        if (kind[g] == 1) {
            if (pat_len[g] < 1 || pat_base[g] < 0 || pat_base[g] > npat - pat_len[g])
                return AS_PLAN;
        } else if (kind[g] == 2) {
            if (corr_row[g] < 0 || corr_row[g] >= C) return AS_PLAN;
        } else if (kind[g] != 0) return AS_PLAN;
    }

    /* per-site pool bases: counts, then an exclusive prefix sum */
    int64_t *base = calloc(S + 1, sizeof(int64_t));
    int64_t *cur = malloc((S + 1) * sizeof(int64_t));
    uint8_t *pool = 0;
    int64_t rc = AS_NOMEM;
    if (!base || !cur) goto done;
    for (int64_t i = 0; i < nr; i++) {
        int64_t site = runs[i] >> 14;
        if (site < 0 || site >= S) { rc = AS_RUN; goto done; }
        base[site + 1] += (runs[i] >> 1) & 8191;
    }
    for (int64_t g = 0; g < S; g++) base[g + 1] += base[g];
    /* an empty pool reads as one not-taken value, as the numpy form's */
    int64_t pn = base[S] ? base[S] : 1;
    pool = malloc(pn);
    if (!pool) goto done;
    pool[0] = 0;
    memcpy(cur, base, (S + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < nr; i++) {
        int64_t site = runs[i] >> 14, len = (runs[i] >> 1) & 8191;
        memset(pool + cur[site], (int)(runs[i] & 1), len);
        cur[site] += len;
    }

    int64_t t = 0;
    for (int64_t i = 0; i < nv && t < length; i++) {
        int64_t v = visits[i];
        int64_t its = v & 8191, reg = (v >> 13) & 8191, prior = v >> 26;
        if (reg >= R || prior < 0) { rc = AS_VISIT; goto done; }
        int64_t w = width[reg], gb = gbase[reg];
        for (int64_t q = 0; q < its && t < length; q++) {
            int64_t ex = prior + q;
            for (int64_t g = gb; g < gb + w && t < length; g++, t++) {
                pcs[t] = templ[g];
                uint8_t o;
                if (kind[g] == 0) {
                    int64_t k = base[g] + ex;
                    o = pool[k < pn ? k : pn - 1];
                } else if (kind[g] == 1) {
                    o = pattern_pool[pat_base[g] + q % pat_len[g]];
                } else {
                    int64_t row = corr_row[g], acc = 0;
                    const int64_t *pm = posmat + row * P;
                    for (int64_t b = 0; b < P; b++)
                        if (pm[b] < t) acc |= (int64_t)out[t - 1 - pm[b]] << b;
                    int64_t idx = tab_base[row] + acc;
                    if (idx >= ntab) { rc = AS_TABLE; goto done; }
                    o = table_pool[idx];
                    if (corr_flip[g]) {
                        int64_t k = base[g] + ex;
                        if (k >= pn) { rc = AS_FLIP; goto done; }
                        o ^= pool[k];
                    }
                }
                out[t] = o;
            }
        }
    }
    rc = t;
done:
    free(base);
    free(cur);
    free(pool);
    return rc;
}
"""


def _mt_state(rng: Random) -> Tuple[np.ndarray, int]:
    """Extract (624 MT words, cursor) from a ``random.Random``."""
    state = rng.getstate()[1]
    return np.asarray(state[:624], dtype=np.uint32), int(state[624])


def _selftest(lib: ctypes.CDLL) -> Optional[str]:
    """Draw from both implementations and require exact agreement;
    the reason to refuse the driver, or ``None``."""
    rng = Random(0xC0FFEE)
    words, pos = _mt_state(rng)
    nd, ni, nrv = 512, 256, 256
    outd = np.empty(nd, dtype=np.float64)
    outi = np.empty(ni, dtype=np.int64)
    outr = np.empty(nrv, dtype=np.int64)
    lib.mt_selftest(
        words.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(pos),
        outd.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(nd),
        outi.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(ni),
        outr.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(nrv),
    )
    lambd = 1.0 / 12.0
    if (
        any(outd[i] != rng.random() for i in range(nd))
        or any(outi[i] != rng.randint(-3, 3) for i in range(ni))
        or any(outr[i] != round(rng.expovariate(lambd)) for i in range(nrv))
    ):  # pragma: no cover - platform-dependent
        return "MT19937 replication self-test failed"
    return None


def _bind(lib: ctypes.CDLL) -> Optional[str]:
    """Declare the entry points' types, then run the self-test."""
    lib.fastgen_events.restype = ctypes.c_int64
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fastgen_assemble.argtypes = [
        ptr, i64,  # visits
        ptr, i64,  # runs
        i64, ptr, ptr,  # regions: count, width, gbase
        i64, ptr, ptr, ptr, ptr,  # sites: count, template, kind, pat_base, pat_len
        ptr, i64,  # pattern pool
        ptr, ptr,  # corr_row, corr_flip
        i64, i64, ptr, ptr,  # correlation rows: count, positions, posmat, tab_base
        ptr, i64,  # table pool
        i64, ptr, ptr,  # length, pcs out, outcomes out
    ]
    lib.fastgen_assemble.restype = i64
    lib.mt_selftest.restype = None
    return _selftest(lib)


_LIB = _cbuild.CLibrary(
    "fastgen", _C_SOURCE, _bind, flags=("-lm",), siblings=("repro.sim._cstep",)
)


available = _LIB.available
unavailable_reason = _LIB.unavailable_reason


def events(
    cl,
    rng: Random,
    jump_targets: np.ndarray,
    jump_prob: float,
    length: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Run the event pass in C; ``(visits, runs)`` or ``None`` on failure.

    ``cl`` is the flat C layout built by ``fastgen._prepare``; ``rng``
    is the *fresh* ``random.Random`` whose stream the replay consumes
    (its state is copied out, the object itself is not advanced — the
    caller must not reuse it either way).
    """
    lib = _LIB.load()
    if lib is None:
        return None
    words, pos = _mt_state(rng)
    R = int(cl.width.size)
    nb = int(cl.b_pos.size)
    heap_t = np.empty(nb, dtype=np.int64)
    heap_pos = np.empty(nb, dtype=np.int32)
    heap_site = np.empty(nb, dtype=np.int32)
    prior = np.empty(R, dtype=np.int64)
    lrem = np.empty(R, dtype=np.int64)
    ltrip = np.empty(R, dtype=np.int64)
    pointers = np.empty(R, dtype=np.int64)
    jt = np.ascontiguousarray(jump_targets, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)

    runs_cap = length // 2 + 65536 + 8 * nb
    visits_cap = length // 8 + 4096
    for _ in range(4):
        runs = np.empty(runs_cap, dtype=np.int64)
        visits = np.empty(visits_cap, dtype=np.int64)
        rc = lib.fastgen_events(
            _ptr(words),
            ctypes.c_int64(pos),
            ctypes.c_int64(R),
            _ptr(cl.width),
            _ptr(cl.max_iter),
            _ptr(cl.loop_g14),
            _ptr(cl.loop_trip),
            _ptr(cl.loop_jit),
            _ptr(cl.loop_res),
            _ptr(cl.b_off),
            _ptr(cl.b_pos),
            _ptr(cl.b_g14),
            _ptr(cl.b_rate),
            _ptr(cl.b_lambd),
            _ptr(cl.b_base),
            _ptr(cl.p_off),
            _ptr(cl.p_pos),
            _ptr(cl.p_g142),
            _ptr(cl.p_p),
            _ptr(cl.s_off),
            _ptr(cl.s_ent),
            _ptr(jt),
            ctypes.c_int64(len(jt)),
            ctypes.c_double(jump_prob),
            ctypes.c_int64(length),
            _ptr(heap_t),
            _ptr(heap_pos),
            _ptr(heap_site),
            _ptr(prior),
            _ptr(lrem),
            _ptr(ltrip),
            _ptr(pointers),
            _ptr(runs),
            ctypes.c_int64(runs_cap),
            _ptr(visits),
            ctypes.c_int64(visits_cap),
            _ptr(counts),
        )
        if rc == 0:
            return visits[: counts[1]].copy(), runs[: counts[0]].copy()
        if rc == -1:
            runs_cap = runs_cap * 4 + length
        elif rc == -2:
            visits_cap = visits_cap * 4 + length
        else:  # pragma: no cover - unknown return code
            return None
    return None  # pragma: no cover - caps kept overflowing


#: What each negative return code of ``fastgen_assemble`` found.
_ASSEMBLE_ERRORS = {
    -1: "a region, site or correlation table entry is malformed",
    -2: "a visit names a region outside the plan or a negative prior",
    -3: "a run names a site outside the plan",
    -4: "a correlated flip reads past the end of the run pool",
    -5: "a correlated table index falls outside the table pool",
}


def assemble(plan, visits: np.ndarray, runs: np.ndarray, length: int):
    """Run the assembly pass in C: ``(pcs, outcomes)`` of the trace.

    ``plan`` is the ``fastgen._Plan`` of the program and ``(visits,
    runs)`` the packed records of its event pass; the result equals
    ``fastgen._assemble`` on the same records, at most ``length``
    branches.  A record or plan entry that would index out of range
    raises ``ValueError``; the loop checks each index before it reads
    or writes through it.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    i64 = partial(np.ascontiguousarray, dtype=np.int64)
    u8 = partial(np.ascontiguousarray, dtype=np.uint8)
    visits, runs = i64(visits), i64(runs)
    width, gbase = i64(plan.widths), i64(plan.gbase)
    template, kind = i64(plan.template), u8(plan.kind)
    pat_base, pat_len = i64(plan.pat_base), i64(plan.pat_len)
    corr_row, corr_flip = i64(plan.corr_row), u8(plan.corr_flip)
    posmat, tab_base = i64(plan.posmat), i64(plan.tab_base)
    pattern_pool, table_pool = u8(plan.pattern_pool), u8(plan.table_pool)
    rows, positions = posmat.shape
    if (
        width.size != gbase.size
        or tab_base.size != rows
        or any(
            a.size != template.size
            for a in (kind, pat_base, pat_len, corr_row, corr_flip)
        )
    ):
        raise ValueError("fastgen plan tables disagree in size")
    pcs = np.empty(length, dtype=np.int64)
    outcomes = np.empty(length, dtype=bool)
    n = lib.fastgen_assemble(
        _ptr(visits),
        visits.size,
        _ptr(runs),
        runs.size,
        width.size,
        _ptr(width),
        _ptr(gbase),
        template.size,
        _ptr(template),
        _ptr(kind),
        _ptr(pat_base),
        _ptr(pat_len),
        _ptr(pattern_pool),
        pattern_pool.size,
        _ptr(corr_row),
        _ptr(corr_flip),
        rows,
        positions,
        _ptr(posmat),
        _ptr(tab_base),
        _ptr(table_pool),
        table_pool.size,
        length,
        _ptr(pcs),
        _ptr(outcomes),
    )
    if n < 0:
        if n not in _ASSEMBLE_ERRORS:  # pragma: no cover - malloc failure
            raise MemoryError("fastgen assembly pool")
        raise ValueError(f"malformed trace-generation records: {_ASSEMBLE_ERRORS[n]}")
    return pcs[:n], outcomes[:n]
